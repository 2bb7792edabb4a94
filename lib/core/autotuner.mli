(** The ordinal-regression autotuner — the paper's contribution, end to
    end.

    Train once on synthetic stencils (§V-B), then rank the predefined
    tuning configurations for an unseen stencil instance without
    executing any of them (§V-C): the top-ranked configuration is the
    tuner's answer.  The tuner can also act as a ranking oracle inside
    an iterative search (see {!Hybrid}). *)

type t

type solver =
  | Sgd of Sorl_svmrank.Solver_sgd.params
  | Dcd of Sorl_svmrank.Solver_dcd.params

val default_solver : solver
(** Pegasos SGD with the paper's [C = 0.01]. *)

val train :
  ?spec:Training.spec ->
  ?solver:solver ->
  Sorl_machine.Measure.t ->
  t
(** Generate the training set on [measure] and fit the ranking model. *)

val train_on :
  ?solver:solver ->
  ?init:float array ->
  mode:Sorl_stencil.Features.mode ->
  Sorl_svmrank.Dataset.t ->
  t
(** Fit on an existing dataset (whose features must use [mode]).
    [?init] warm-starts the solver from an existing weight vector (see
    {!Sorl_svmrank.Solver_dcd.train} / {!Sorl_svmrank.Solver_sgd.train})
    — the continual-retraining path fine-tunes from {!weights} of the
    serving model. *)

val of_model : mode:Sorl_stencil.Features.mode -> Sorl_svmrank.Model.t -> t

val model : t -> Sorl_svmrank.Model.t
val feature_mode : t -> Sorl_stencil.Features.mode

val weights : t -> Sorl_util.Vec.t
(** A copy of the model's weight vector — the [?init] for a
    warm-started {!train_on}.  (Ranking reads one dense copy made when
    the tuner is built, never a per-call one.) *)

val score : t -> Sorl_stencil.Instance.t -> Sorl_stencil.Tuning.t -> float
(** Predicted-rank score; lower means predicted faster.  [score t inst]
    partially applied compiles the instance once. *)

val embed : t -> Sorl_stencil.Instance.t -> float array
(** {!Sorl_stencil.Features.embedding} under this tuner's feature mode:
    a dense L2-normalized instance vector whose cosine distance is the
    similarity measure of the serving layer's near-miss reuse
    ({!Sorl_util.Nn_index}).  Deterministic and pool-size independent. *)

(** {2 Ranking: one top-k over the predefined set}

    The tuner ranks the paper's predefined configuration set of the
    instance's dimensionality (1600 or 8640 configurations, §VI-A), and
    every ranking entry below goes through {!top_k_pruned}.  It picks
    one of two engines from [k] alone, and both return {e exactly} the
    first [k] elements of the full rank — candidates ordered by
    ascending score, ties by position in {!Sorl_stencil.Tuning.predefined_set}:

    - [2k < n]: branch and bound.  One score lower bound per
      (bx, by, bz) subcube ({!Sorl_stencil.Features.cube_bound}),
      cubes visited in ascending bound order, whole cubes skipped once
      the k-th best score beats their bound.  Bounds are sound lower
      bounds minus a float-safety epsilon, and skipping requires a
      strictly larger bound, so equal-score index tiebreaks survive.
    - otherwise: score everything and sort, the cubes chunked over the
      {!Sorl_util.Pool}.  Near a full rank pruning would score almost
      every cube anyway, and this engine is the faster one there.

    Neither engine builds a feature vector: both score whole cubes
    from the encoder's weight-free grid tables
    ({!Sorl_stencil.Features.score_cube}, built on the first rank
    through an encoder), bit-identical to encode-and-{!score} per
    candidate, so the order is identical for every pool size.  A full
    rank is [top_k ~k:(Tuning.predefined_size ~dims)]. *)

type scratch
(** Reusable working memory (one cube's scores + selection heap) of
    the branch-and-bound engine, so a cold small-k top-k allocates
    O(k + subcubes), not O(n).  Not thread-safe: one scratch per
    concurrent caller. *)

val scratch : unit -> scratch

type prune_stats = {
  cubes : int;  (** block subcubes in the grid *)
  cubes_pruned : int;  (** subcubes skipped by their bound *)
  scored : int;  (** candidates actually scored *)
  pruned : int;  (** candidates skipped without scoring *)
}

val top_k_pruned :
  ?scratch:scratch ->
  ?incumbents:Sorl_stencil.Tuning.t array ->
  t ->
  Sorl_stencil.Features.compiled ->
  dims:int ->
  k:int ->
  Sorl_stencil.Tuning.t array * prune_stats
(** [top_k_pruned t enc ~dims ~k] is the first [k] elements of the
    full rank of [Tuning.predefined_set ~dims] (element for element),
    plus how much of the grid the branch-and-bound engine skipped; the
    full engine reports [scored = n], [pruned = 0].  [k] is clamped to
    the set size; [k = 0] yields [[||]].  The encoder must be compiled
    from this tuner's mode (checked) for the instance being ranked (not
    checkable — a caller that caches encoders pins it with its cache
    key).  Raises [Invalid_argument] on mode mismatch or negative [k].

    [incumbents] are warm-start candidates (e.g. a similar instance's
    known winners) used {e only} to tighten the initial pruning bound:
    entries not on the predefined grid are ignored, and when at least
    [k] on-grid incumbents remain, their k-th smallest score becomes a
    starting bound so whole subcubes can be skipped before the
    selection heap fills.  Because every pruned cube's lower bound
    strictly exceeds the score of some k on-grid candidates, the result
    (tunings {e and} order) is identical with or without incumbents —
    only [prune_stats] changes. *)

val top_k :
  ?scratch:scratch ->
  ?incumbents:Sorl_stencil.Tuning.t array ->
  t ->
  Sorl_stencil.Instance.t ->
  k:int ->
  Sorl_stencil.Tuning.t array
(** {!top_k_pruned} with a freshly compiled encoder and the instance's
    own dimensionality; just the tunings.  No execution happens.
    Repeated ranks of one instance should hold a compiled encoder and
    call {!top_k_pruned}, which reuses its grid tables. *)

val tune :
  ?incumbent:Sorl_stencil.Tuning.t ->
  t ->
  Sorl_stencil.Instance.t ->
  Sorl_stencil.Tuning.t
(** The tuner's answer: the top-ranked configuration of the predefined
    set — {!top_k} with [k = 1], so the grid is pruned, not
    enumerated.  [incumbent] (e.g. a neighbor instance's best
    configuration) seeds the pruning bound as in {!top_k_pruned};
    the answer never depends on it. *)

val save : t -> string -> unit
(** Persist model weights + feature mode as a version-headed text file
    ([sorl-model v1]), written atomically via temp-file + rename
    ({!Sorl_util.Persist.write_atomic}) so a concurrent {!load} never
    observes a torn file. *)

val load_result : string -> (t, string) result
(** Defensive load: missing files, wrong or absent version headers,
    unknown feature modes and truncated/corrupt payloads all come back
    as [Error] with a message naming the problem and the path — never
    as an exception from the middle of parsing.  This is the path the
    serving subsystem's hot reload uses. *)

val load : string -> t
(** {!load_result}, raising [Failure] with its message on [Error]. *)

val to_string : t -> string
(** The exact bytes {!save} writes. *)

val of_string : string -> (t, string) result
(** Parse {!to_string} output; same error contract as
    {!load_result}. *)
