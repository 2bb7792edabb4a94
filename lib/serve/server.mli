(** The ranking server: event-driven connection multiplexer, worker
    domains, generation-keyed result cache, backpressure, hot reload.

    A single reactor domain ({!Reactor}) owns every connection: it
    accepts, reads, frames the byte stream into request lines, and
    hands {e ready request batches} to [workers] long-lived worker
    domains through a bounded {!Sorl_util.Bqueue}.  Idle keep-alive
    connections therefore cost one [select] slot instead of pinning a
    worker, and any number of mostly-idle clients coexist with a small
    worker pool.  Requests a client pipelines (several lines buffered
    before the server reads) are answered in order with a single
    write.  Worker domains run under {!Sorl_util.Pool.serially}, so a
    rank request's scoring pass never fans out into a second level of
    domains.

    The hot path is the result cache ({!Result_cache}): [rank] and
    [tune] replies are deterministic under one model generation, so
    each encoded reply is cached under
    [(generation, verb/top, benchmark)] — a repeated query is one LRU
    lookup plus one write, no scoring, no encoding.  The cache is
    warmed for every registered benchmark after [start] and after each
    successful [reload]; capacity comes from [SORL_SERVE_CACHE] (0
    disables) unless [cache_capacity] overrides it.

    {2 Near-miss reuse}

    Behind the exact cache sits a nearest-neighbor index
    ({!Sorl_util.Nn_index}) over instance embeddings
    ({!Sorl.Autotuner.embed}), populated with the exact winners of
    every instance the server has ranked under the current generation
    (warming fills it at startup).  A [rank!]/[tune!] request
    ({!Protocol.request} with [approx_ok]) that misses the cache and
    has an indexed instance within [neighbor_threshold] cosine
    distance is answered {e immediately} with that neighbor's winners,
    flagged approximate ([rank~]/[tune~] on the wire); the exact
    result is computed after the reply is written — seeded with the
    neighbor's winners as branch-and-bound incumbents, so the pruned
    selection starts with a tight bound — and back-fills the cache.
    The next identical request is therefore an exact cache hit, exact
    replies are byte-identical to a server without the layer, and a
    reply is never torn between the two (the back-fill runs strictly
    after the write).  Requests without [!] never receive approximate
    answers.  The index is keyed to the model generation; a reload
    drops it wholesale.

    The served model lives in an [Atomic.t] holding an immutable
    (tuner, name, generation) snapshot: [reload] builds the new
    snapshot off to the side — with the typed
    {!Sorl.Autotuner.load_result} / {!Model_store.load} error paths, so
    a corrupt file is an [err store] reply and the old model keeps
    serving — and swaps it in one atomic store.  In-flight requests
    keep the snapshot they started with; replies are never torn across
    models, and a cached reply always carries the generation of the
    model that produced it, so a stale generation's reply can never be
    served after the reload that retired it.

    Backpressure is explicit: when [max_connections] is reached at
    accept, or the worker queue is full at dispatch, the client gets an
    [err busy] reply (written under a send timeout so a slow client
    cannot block the reactor) and the connection is closed.

    {2 Online learning}

    With [obs_log] set, the server closes the measure→train→publish→
    serve loop's serving side.  [observe] requests append to an
    append-only, checksummed {!Sorl_learn.Obs_log} (crash-safe:
    replay recovers every complete record).  [canary <model>] loads a
    store entry as a {e shadow} candidate: every [canary_fraction]-th
    rank/tune request is re-scored by the candidate strictly {e after}
    the stable reply is written (the same deferred-work mechanism as
    the near-miss back-fill), so replies stay byte-identical to the
    stable generation while [canary_agree]/[canary_disagree] and
    per-benchmark agreement accumulate.  [promote] replays the log,
    takes the deterministic held-out slice ({!Sorl_learn.Trainer.split}
    with [holdout]/[holdout_seed] — the same split the trainer used, so
    the candidate is judged on records it never trained on) and
    compares mean per-benchmark Kendall tau: no worse installs the
    candidate through {e exactly} the hot-reload snapshot swap (new
    generation, warmed cache); worse rolls it back and quarantines the
    name until a new generation is published.

    Shutdown (the protocol request, or {!stop}) is graceful: the
    reactor stops accepting, queued batches drain, in-flight requests
    complete and are answered, then the domains exit and {!wait}
    returns.

    Counters are per instance and have one source: the [stats]
    request ([requests], [errors], [connections], [busy_rejections],
    [reloads], [pipelined], [result_cache_*], [neighbor_*],
    [approx_replies], [canary_*]; {!requests_served} reads the same
    request count).
    Telemetry (when enabled) adds only what [stats] does not carry: a
    [serve/request] span per request and [serve.request_s] /
    [serve.queue_depth] histograms.  Alongside the counters, [stats]
    reports [neighbor_entries], [neighbor_capacity],
    [neighbor_evictions] and per-generation
    [result_cache_entries_g<n>] occupancy.  For a pure
    [rank!]/[tune!] load,
    [approx_replies + result_cache_hits + neighbor_misses] accounts
    for every request exactly once. *)

type t

(** Where models come from — both {!Protocol.Reload} targets. *)
type source =
  | Model_file of string
      (** a single [Autotuner.save] file; [reload] re-reads it *)
  | Store of Model_store.t * string
      (** a {!Model_store} and the name to serve first; [reload <name>]
          switches models *)

val listener :
  Protocol.address -> (Unix.file_descr * Protocol.address, string) result
(** Bind and listen on an address, returning the descriptor and the
    effective address ([Tcp (host, 0)] comes back with the kernel's
    ephemeral port; a stale unix socket file is unlinked first).
    Shared with {!Router.start}, which fronts the same protocol. *)

val default_neighbor_threshold : float
(** Default cosine-distance threshold for near-miss reuse.  Calibrated
    on the registered benchmark suite against {e measured} ranking
    transfer: only near-identical encodings (blur size variants, edge
    vs game-of-life) keep the provisional ranking within the quality
    gate (Kendall tau >= 0.85 vs the exact ranking); already at a few
    1e-3 of cosine distance the transferred ordering degrades to tau
    ~0.3, so the default declines those ([neighbor_misses]) rather
    than reply with a misleading ranking.  The [neighbor-reuse] bench
    reports the measured distance/tau table. *)

val start :
  ?address:Protocol.address ->
  ?workers:int ->
  ?queue_capacity:int ->
  ?conn_timeout_s:float ->
  ?cache_capacity:int ->
  ?max_connections:int ->
  ?warm:bool ->
  ?neighbors:int ->
  ?neighbor_threshold:float ->
  ?obs_log:string ->
  ?obs_roll:int ->
  ?obs_fsync:bool ->
  ?canary_fraction:float ->
  ?holdout:float ->
  ?holdout_seed:int ->
  source ->
  (t, string) result
(** Load the initial model, bind the listener, warm the result cache
    and spawn the reactor and worker domains.  Defaults:
    [unix:sorl.sock], [Sorl_util.Pool.default_domains ()] workers,
    queue capacity 64 batches, 10 s idle/write timeout, cache capacity
    from [SORL_SERVE_CACHE] (else 1024; 0 disables), 512 connections,
    [warm] true, [neighbors] 512,
    [neighbor_threshold] {!default_neighbor_threshold}.
    [Tcp (host, 0)] binds an ephemeral port — read the real one back
    from {!address}.

    [neighbors] caps the near-miss index's entry count (LRU beyond
    it); 0 disables the layer entirely, making [rank!]/[tune!]
    behave exactly like [rank]/[tune].

    [obs_log] enables observation ingestion into the given segmented
    log directory (created — parent directories included — when
    absent; a v1 single-file log at the same path is migrated; a torn
    tail from a crash is truncated away on open).  [obs_roll]
    (default {!Sorl_learn.Obs_log.default_roll_at}; 0 disables) seals
    the active tail into an immutable segment every so many records,
    which is what lets retraining reuse per-segment encoded-feature
    caches; [obs_fsync] (default off, or [SORL_OBS_FSYNC]) fsyncs
    each seal.  Without [obs_log], [observe] and [promote] answer
    [err no-log].  [canary_fraction] (default 1,
    i.e. every request; must be in (0, 1]) is the fraction of
    rank/tune traffic shadow-scored while a canary is loaded.
    [holdout]/[holdout_seed] (defaults
    {!Sorl_learn.Trainer.default_holdout} /
    {!Sorl_learn.Trainer.default_seed}) pin the promote decision's
    held-out slice and must match the trainer's split. *)

val address : t -> Protocol.address
(** The bound address (with the actual port for ephemeral TCP). *)

val generation : t -> int
(** Current model generation; 0 at start, +1 per successful reload. *)

val requests_served : t -> int
(** Requests handled so far: the [requests] key of [stats]. *)

val stop : t -> unit
(** Begin graceful shutdown (idempotent; also triggered by a protocol
    [shutdown] request).  Returns immediately — {!wait} observes the
    drain. *)

val wait : t -> unit
(** Block until the server has fully shut down, then release the
    listener (and unlink a unix socket path).  Idempotent. *)
