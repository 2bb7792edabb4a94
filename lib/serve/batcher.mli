(** Request coalescing for concurrent rank queries.

    Ranking is deterministic given (model generation, instance, k), so
    when several connections ask for the same top-k of the same
    benchmark at the same time there is no point running the scoring
    pass once per connection: the first arrival (the {e leader}) runs
    one {!Sorl.Autotuner.top_k_pruned} while the rest ({e followers})
    block on a condition variable and receive the {e same} result
    array.  Results are keyed by model generation, so a hot reload
    mid-flight can never leak a stale ranking to a request that arrived
    after the swap.

    The batcher also owns a small LRU of compiled per-instance encoders
    (compiling touches the full 7×7×7 pattern matrix; reusing the
    encoder is what makes repeated queries for the same benchmark
    cheap).  An encoder also carries the weight-free grid tables its
    first rank builds ({!Sorl_stencil.Features.bounder}, about 41 KB
    for a 3-D instance), so a cached one ranks without rebuilding them.
    Encoders are keyed by (mode, instance), independent of the model
    generation — a reload with an unchanged feature mode keeps the
    cache (tables included) warm. *)

type t

val create : ?encoder_cache:int -> unit -> t
(** [encoder_cache] (default 32) bounds the compiled-encoder LRU.
    Raises [Invalid_argument] when < 1. *)

val rank_top :
  t ->
  ?incumbents:Sorl_stencil.Tuning.t array ->
  generation:int ->
  tuner:Sorl.Autotuner.t ->
  inst:Sorl_stencil.Instance.t ->
  k:int ->
  unit ->
  Sorl_stencil.Tuning.t array * bool
(** The first [k] of the predefined-set rank for [inst] under the
    model of [generation] — element for element what
    {!Sorl.Autotuner.top_k_pruned} returns, which picks its engine from
    [k] — with working memory drawn from a per-batcher scratch arena,
    so a cold pruned request allocates O(k + subcubes) instead of O(n).
    Returns whether this call was coalesced onto another in-flight
    computation ([true] = follower; the array is then physically shared
    with the leader's).  Coalescing is keyed by (generation, instance,
    k); [incumbents] (warm-start pruning bounds) never changes the
    result, so it is deliberately not part of the key.  Exceptions
    from the scoring pass are re-raised in every coalesced caller.
    Prune and arena counters land in {!stats}. *)

val encoder :
  t -> Sorl_stencil.Features.mode -> Sorl_stencil.Instance.t -> Sorl_stencil.Features.compiled
(** The cached compiled encoder of [inst] under [mode] (compiled and
    inserted on a miss), for callers that rank outside {!rank_top} —
    the canary's shadow re-rank — so they reuse its score tables.
    Counts in the encoder hit/miss {!stats}. *)

type stats = {
  leaders : int;  (** rank calls that ran a scoring pass *)
  followers : int;  (** rank calls satisfied by an in-flight leader *)
  encoder_hits : int;
  encoder_misses : int;
  arena_hits : int;  (** top-k scratches served from the free list *)
  arena_misses : int;  (** top-k scratches freshly allocated *)
  cubes_pruned : int;  (** block subcubes skipped by bound, summed *)
  cands_pruned : int;  (** candidates never encoded or scored, summed *)
  cands_scored : int;  (** candidates scored, summed *)
}

val stats : t -> stats
