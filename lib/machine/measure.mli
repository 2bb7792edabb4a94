(** Unified measurement of stencil executions.

    The rest of the library asks a {!t} for the runtime of
    [(instance, tuning)] and never cares whether the number came from
    the analytic model or a real execution:

    - {!model} prices variants with {!Cost_model} and attaches
      deterministic multiplicative noise keyed on the configuration, so
      a configuration always "measures" the same — like re-running on a
      quiet machine — while different configurations see independent
      perturbations;
    - {!wallclock} compiles and actually runs the variant through the
      interpreter on real grids and times it.

    An evaluation counter makes search budgets observable.  The counter
    is atomic, so a single measure may be shared by domains evaluating
    configurations in parallel (the model backend is otherwise pure).

    Each measure carries a bounded LRU memo keyed by the 64-bit
    configuration key: re-measuring a configuration already in the
    cache returns the stored runtime without touching the backend.
    Both backends report the same value for a configuration however
    often it is asked (the model backend by construction, the wallclock
    backend because the first measurement is remembered), so searches
    behave identically with the cache on or off — only faster.  The
    default capacity is 8192 entries; the [SORL_MEASURE_CACHE]
    environment variable overrides it, and a
    capacity of 0 disables caching entirely. *)

type t

val model :
  ?noise_amplitude:float -> ?seed:int -> ?cache_capacity:int -> Machine_desc.t -> t
(** Cost-model backend.  [noise_amplitude] (default 0.02) bounds the
    relative perturbation; 0 disables noise.  [seed] (default 42) keys
    the noise hash.  [cache_capacity] overrides the memo capacity
    (0 disables; default from [SORL_MEASURE_CACHE], else 8192). *)

val wallclock : ?repeats:int -> ?cache_capacity:int -> unit -> t
(** Interpreter-execution backend; the median of [repeats] runs
    (default 3) is reported.  Slow — meant for examples and validation,
    not for the 1024-evaluation search experiments.  [cache_capacity]
    as for {!model}. *)

val runtime : t -> Sorl_stencil.Instance.t -> Sorl_stencil.Tuning.t -> float
(** Seconds for one sweep.  Counts one evaluation whether it is served
    from the cache or freshly measured, so budgets are unaffected by
    caching. *)

val gflops : t -> Sorl_stencil.Instance.t -> Sorl_stencil.Tuning.t -> float
(** Paper-convention GFlop/s of the same measurement.
    Counts one evaluation. *)

val evaluations : t -> int
(** Number of {!runtime}/{!gflops} calls so far, cache hits included. *)

val cache_hits : t -> int
(** How many of those calls were served from the memo. *)

val cache_capacity : t -> int
(** Resolved memo capacity; 0 means caching is disabled. *)

val reset_evaluations : t -> unit
(** Reset both the evaluation and cache-hit counters (the cached
    runtimes themselves are kept). *)

val descr : t -> string
