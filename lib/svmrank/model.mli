(** Linear ranking models.

    A model is a weight vector [w]; the score [w·φ(q,t)] is a monotone
    proxy of runtime — {e smaller score means predicted faster}.
    Sorting candidate configurations by ascending score yields the
    predicted ranking (§IV-C), and the first element is the
    configuration the autotuner selects. *)

type t

val create : Sorl_util.Vec.t -> t
(** Wrap a weight vector. *)

val dim : t -> int
val weights : t -> Sorl_util.Vec.t
(** A copy of the weight vector. *)

val score : t -> Sorl_util.Sparse.t -> float
(** [w·φ]; lower is predicted-faster. *)

val entry_scorer : t -> (int * float) list -> float
(** [entry_scorer t] returns a closure scoring raw (index, value) entry
    lists (duplicates sum) without building a sparse vector, via a
    private dense scratch.  Bit-identical to
    [score t (Sparse.of_list ~dim entries)].  The closure is not
    reentrant: create one scorer per domain when scoring in parallel. *)

val range_scorer : t -> int array -> float array -> int -> int -> float
(** [range_scorer t idx v lo hi] scores the [\[lo, hi)] range of a
    strictly-increasing index/value pair (the layout
    {!Sorl_stencil.Features.encode_into} fills) through the one dot
    kernel {!Sorl_util.Sparse.dot_range}.  Bit-identical to [score t]
    of the equivalent sparse vector; allocation-free. *)

val sort_by_score : float array -> int array
(** Permutation of indices sorting the given scores ascending, ties
    broken by index (stable). *)

val top_k : ?k:int -> float array -> int array
(** [top_k ~k scores] is [Array.sub (sort_by_score scores) 0 (min k n)]
    — same indices, same order, including duplicate-score tiebreaks —
    computed in O(n log k) through a bounded heap ({!Sorl_util.Topk})
    instead of a full sort.  Scores must be NaN-free (the sort
    comparator's own precondition for a total order).  [k] defaults to
    all of them; [k = 0] yields [[||]]; [k >= n] degenerates to the
    full sort.  Raises [Invalid_argument] on negative [k]. *)

val save : t -> string -> unit
(** Write a small versioned text format ([sorl-rank-model 1]:
    dimension, nonzero count, the nonzero weights, an [end] terminator
    — the count and terminator make truncation detectable) atomically
    ({!Sorl_util.Persist.write_atomic}): concurrent readers see either
    the previous file or the new one, never a torn write. *)

val load : string -> t
(** Raises [Failure] with a descriptive message on malformed,
    wrong-version or truncated files. *)

val to_string : t -> string
val of_string : string -> t
