(** Search problems over bounded integer vectors.

    The iterative-compilation baselines (§VI-A) all minimize a cost
    (runtime) over the tuning space, viewed as a vector of bounded
    integers — 4 coordinates for 2-D stencils, 5 for 3-D ones.  The
    problem owns the objective; {!Runner} wraps it with an evaluation
    budget and a best-so-far trace. *)

type t

val create : bounds:(int * int) array -> eval:(int array -> float) -> t
(** [bounds] are inclusive per-coordinate ranges ([lo <= hi], at least
    one coordinate); [eval] returns the cost to minimize (must be
    finite). *)

type parent = {
  record : int array -> float -> unit;
      (** account one completed evaluation (point, cost) upstream *)
  remaining : unit -> int;  (** evaluations the upstream budget still allows *)
}
(** Upstream accounting of a child problem (see {!Runner.child}). *)

val with_parent : t -> parent -> t
(** The same objective and bounds, with every runner created on the
    result also accounting to [parent]. *)

val parent : t -> parent option

val objective : t -> int array -> float
(** [objective t] is {!eval} as a closure over the bounds and the
    objective function only — no {!parent} accounting is reachable
    from it, so it is what runners hand to {!Sorl_util.Pool} workers. *)

val bounds : t -> (int * int) array
val dims : t -> int
val eval : t -> int array -> float
(** Clamps the point into bounds before evaluating. *)

val clamp : t -> int array -> int array
val random_point : t -> Sorl_util.Rng.t -> int array
(** Uniform per coordinate — log-uniform for coordinates whose range
    spans more than two orders of binary magnitude, so huge block-size
    ranges are explored evenly in scale. *)

val mutate_coord : t -> Sorl_util.Rng.t -> int array -> int -> unit
(** In-place perturbation of one coordinate: multiplicative log-normal
    jump for wide ranges, ±1/±2 steps for narrow ones. *)
