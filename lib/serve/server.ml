open Sorl_stencil

type source =
  | Model_file of string
  | Store of Model_store.t * string

(* The served model.  Immutable record swapped atomically on reload, so
   a request holds one coherent snapshot for its whole lifetime: a
   reload mid-request can never mix model A's weights with model B's
   generation — and the generation a reply is cached under always
   matches the model that produced it. *)
type loaded = { tuner : Sorl.Autotuner.t; model_name : string; generation : int }

(* Near-miss reuse: an exact NN index over instance embeddings, holding
   the exact top tunings already computed for each served instance
   under the current generation.  A [rank!]/[tune!] request that misses
   the result cache can be answered {e provisionally} from the nearest
   indexed instance within [nn_threshold] (cosine distance) while the
   exact answer is computed after the reply is written.  Invalidation
   is free: the index is pinned to a generation and dropped wholesale
   the first time a newer snapshot touches it. *)
type neighbors = {
  nn_threshold : float;
  nn_capacity : int;
  nn_m : Mutex.t;  (** guards [nn_generation], [nn_index], [embeds] *)
  mutable nn_generation : int;
  mutable nn_index : Tuning.t array Sorl_util.Nn_index.t;
  embeds : (string, float array) Hashtbl.t;
      (** benchmark -> embedding memo, current generation only *)
  nn_hits : int Atomic.t;
  nn_misses : int Atomic.t;
  approx_replies : int Atomic.t;
}

(* A candidate generation under canary: loaded from the store but
   never on the reply path.  A sampled fraction of rank/tune traffic is
   re-scored by [cn_tuner] strictly after the stable reply is written
   (the backfill mechanism), accumulating agreement telemetry until a
   [promote] decides its fate. *)
type canary = {
  cn_name : string;
  cn_tuner : Sorl.Autotuner.t;
  cn_tick : int Atomic.t;  (** sampling clock: every [canary_every]-th rank/tune *)
}

type t = {
  address : Protocol.address;
  source : source;
  current : loaded Atomic.t;
  obs : Sorl_learn.Obs_log.writer option;  (** observation ingestion, [None] = disabled *)
  observations : int Atomic.t;  (** records appended by this process *)
  holdout : float;  (** held-out fraction for promote decisions *)
  holdout_seed : int;
  canary_every : int;  (** shadow every Nth rank/tune while a canary is loaded *)
  canary : canary option Atomic.t;
  quarantined : (string, unit) Hashtbl.t;  (** rolled-back names; guarded by [reload_m] *)
  canary_shadowed : int Atomic.t;
  canary_agree : int Atomic.t;
  canary_disagree : int Atomic.t;
  canary_promotions : int Atomic.t;
  canary_rollbacks : int Atomic.t;
  canary_tau_stable_m : int Atomic.t;  (** last decision's stable tau, thousandths *)
  canary_tau_candidate_m : int Atomic.t;
  canary_bm_m : Mutex.t;  (** guards [canary_bm] *)
  canary_bm : (string, int ref * int ref) Hashtbl.t;
      (** benchmark -> (agree, disagree) over the server's lifetime *)
  batcher : Batcher.t;
  cache : Result_cache.t;
  neighbors : neighbors option;  (** near-miss reuse, [None] = disabled *)
  warm_on_reload : bool;
  workers : int;
  conn_timeout_s : float;
  listen_fd : Unix.file_descr;
  queue : Reactor.batch Sorl_util.Bqueue.t;
  stopping : bool Atomic.t;
  reload_m : Mutex.t;  (** serializes reloads; readers never take it *)
  started_at : float;
  requests : int Atomic.t;
  errors : int Atomic.t;
  connections : int Atomic.t;
  busy_rejections : int Atomic.t;
  reloads : int Atomic.t;
  pipelined : int Atomic.t;
  mutable reactor : Reactor.t option;
  mutable reactor_domain : unit Domain.t option;
  mutable worker_domains : unit Domain.t list;
  mutable joined : bool;
}

let queue_depth_hist = Sorl_util.Telemetry.histogram "serve.queue_depth"
let latency_hist = Sorl_util.Telemetry.histogram "serve.request_s"

let load_source source ~name =
  match (source, name) with
  | Model_file path, None -> (
    match Sorl.Autotuner.load_result path with
    | Ok tuner -> Ok (tuner, Filename.basename path)
    | Error msg -> Error (Protocol.Store, msg))
  | Model_file _, Some _ ->
    Error (Protocol.No_model, "file-backed server cannot switch models; restart with --store")
  | Store (store, current), name -> (
    let name = Option.value name ~default:current in
    match Model_store.load store ~name with
    | Ok tuner -> Ok (tuner, name)
    | Error msg -> Error (Protocol.Store, msg))

(* ---- listener sockets ---- *)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
      Error (Printf.sprintf "cannot resolve host %S" host)
    | { Unix.h_addr_list; _ } -> Ok h_addr_list.(0))

let make_listener address =
  match address with
  | Protocol.Unix_path path -> (
    (* A stale socket file from a crashed server would make bind fail;
       only ever unlink sockets, never regular files. *)
    (match Unix.lstat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> (try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 128
    with
    | () -> Ok (fd, address)
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "cannot listen on %s: %s" path (Unix.error_message e)))
  | Protocol.Tcp (host, port) -> (
    match resolve_host host with
    | Error _ as e -> e
    | Ok addr -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      match
        Unix.bind fd (Unix.ADDR_INET (addr, port));
        Unix.listen fd 128
      with
      | () ->
        (* Port 0 asks the kernel for an ephemeral port; report the
           actual one so clients can connect. *)
        let port =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        Ok (fd, Protocol.Tcp (host, port))
      | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Printf.sprintf "cannot listen on %s:%d: %s" host port (Unix.error_message e))))

let listener = make_listener

(* ---- request dispatch ---- *)

let err code message = Protocol.Error { code; message }

(* ---- near-miss reuse helpers ---- *)

(* Exact tunings stored per indexed instance — enough to answer any
   warmed request shape ([tune], [rank] up to the largest warm top). *)
let nn_payload = 10

(* Pin the index to the caller's snapshot, dropping it wholesale when a
   reload has landed since it was built. *)
let nn_sync ns snapshot ~dim =
  Mutex.protect ns.nn_m (fun () ->
      if ns.nn_generation <> snapshot.generation then begin
        ns.nn_generation <- snapshot.generation;
        ns.nn_index <- Sorl_util.Nn_index.create ~capacity:ns.nn_capacity ~dim ();
        Hashtbl.reset ns.embeds
      end;
      ns.nn_index)

let nn_embedding ns snapshot inst =
  let name = Instance.name inst in
  match Mutex.protect ns.nn_m (fun () -> Hashtbl.find_opt ns.embeds name) with
  | Some v -> v
  | None ->
    (* Computed outside the lock (it walks the probe grid); a racing
       duplicate computes the same bytes, and the first insert wins. *)
    let v = Sorl.Autotuner.embed snapshot.tuner inst in
    Mutex.protect ns.nn_m (fun () ->
        match Hashtbl.find_opt ns.embeds name with
        | Some v' -> v'
        | None ->
          Hashtbl.replace ns.embeds name v;
          v)

(* Remember an instance's exact winners so later similar instances can
   reuse them.  Keeps the longest prefix seen per key (a top-10 must
   not be downgraded by a later tune), and never lets a racing reload
   surface as a request error — worst case the entry lands in an index
   about to be dropped. *)
let nn_insert t snapshot inst ranked =
  match t.neighbors with
  | None -> ()
  | Some ns ->
    if Array.length ranked > 0 then (
      try
        let dim = Features.dim (Sorl.Autotuner.feature_mode snapshot.tuner) in
        let index = nn_sync ns snapshot ~dim in
        let name = Instance.name inst in
        let winners = Array.sub ranked 0 (min nn_payload (Array.length ranked)) in
        let keep =
          match Sorl_util.Nn_index.find index name with
          | Some old -> Array.length old < Array.length winners
          | None -> true
        in
        if keep then Sorl_util.Nn_index.add index ~key:name (nn_embedding ns snapshot inst) winners
      with _ -> ())

(* ---- rank / tune ---- *)

(* Shared body of rank and tune: the first [k] of the rank of the
   named benchmark's predefined set, on the snapshot the caller pinned,
   through the batcher's one coalesced top-k entry.  [total] is the
   full set size (known without ranking).  [incumbents] (a neighbor's
   winners) tightens the pruning bound without changing the result. *)
let top_ranked_for ?incumbents t snapshot benchmark ~k =
  match Sorl_stencil.Benchmarks.instance_by_name benchmark with
  | exception Not_found ->
    Result.Error
      (err Protocol.No_benchmark (Printf.sprintf "unknown benchmark %S" benchmark))
  | inst -> (
    match
      Batcher.rank_top t.batcher ?incumbents ~generation:snapshot.generation
        ~tuner:snapshot.tuner ~inst ~k ()
    with
    | exception e -> Result.Error (err Protocol.Internal (Printexc.to_string e))
    | ranked, _follower ->
      nn_insert t snapshot inst ranked;
      Ok (ranked, Tuning.predefined_size ~dims:(Kernel.dims (Instance.kernel inst))))

let ranked_response ~benchmark ~top ~total ranked =
  Protocol.Ranked
    {
      benchmark;
      total;
      tunings = Array.to_list (Array.sub ranked 0 (min top (Array.length ranked)));
      approx = false;
    }

let handle_rank ?incumbents t snapshot ~benchmark ~top =
  match top_ranked_for ?incumbents t snapshot benchmark ~k:top with
  | Error e -> e
  | Ok (ranked, total) -> ranked_response ~benchmark ~top ~total ranked

let handle_tune ?incumbents t snapshot ~benchmark =
  match top_ranked_for ?incumbents t snapshot benchmark ~k:1 with
  | Error e -> e
  | Ok (ranked, _total) -> Protocol.Tuned { benchmark; tuning = ranked.(0); approx = false }

let handle_info t =
  let l = Atomic.get t.current in
  let mode = Sorl.Autotuner.feature_mode l.tuner in
  Protocol.Info_reply
    [
      ("protocol", string_of_int Protocol.version);
      ("model", l.model_name);
      ("generation", string_of_int l.generation);
      ("mode", Features.mode_to_string mode);
      ("dim", string_of_int (Features.dim mode));
      ("workers", string_of_int t.workers);
      ("cache", string_of_int (Result_cache.capacity t.cache));
      ("uptime_s", string_of_int (int_of_float (Unix.gettimeofday () -. t.started_at)));
    ]

let handle_observe t ~benchmark ~tuning ~cost =
  match t.obs with
  | None ->
    err Protocol.No_log "server has no observation log (start serve with --obs-log)"
  | Some ol -> (
    match Sorl_stencil.Benchmarks.instance_by_name benchmark with
    | exception Not_found ->
      err Protocol.No_benchmark (Printf.sprintf "unknown benchmark %S" benchmark)
    | _ -> (
      match Sorl_learn.Obs_log.append ol { Sorl_learn.Obs_log.benchmark; tuning; cost } with
      | () ->
        Atomic.incr t.observations;
        Protocol.Observed { total = Sorl_learn.Obs_log.written ol }
      | exception Sys_error msg -> err Protocol.Internal ("observation log: " ^ msg)))

let handle_stats t =
  let b = Batcher.stats t.batcher in
  let neighbor_kvs =
    match t.neighbors with
    | None -> []
    | Some ns ->
      let index = Mutex.protect ns.nn_m (fun () -> ns.nn_index) in
      [
        ("neighbor_hits", Atomic.get ns.nn_hits);
        ("neighbor_misses", Atomic.get ns.nn_misses);
        ("approx_replies", Atomic.get ns.approx_replies);
        ("neighbor_entries", Sorl_util.Nn_index.length index);
        ("neighbor_capacity", ns.nn_capacity);
        ("neighbor_evictions", Sorl_util.Nn_index.evictions index);
      ]
  in
  let by_generation =
    List.map
      (fun (g, n) -> (Printf.sprintf "result_cache_entries_g%d" g, n))
      (Result_cache.entries_by_generation t.cache)
  in
  let learn_kvs =
    let obs_kvs =
      match t.obs with
      | None -> []
      | Some ol ->
        [
          ("observations", Atomic.get t.observations);
          ("obs_log_records", Sorl_learn.Obs_log.written ol);
          ("obs_log_segments", Sorl_learn.Obs_log.segments ol);
        ]
    in
    let per_benchmark =
      Mutex.protect t.canary_bm_m (fun () ->
          Hashtbl.fold
            (fun bench (a, d) acc ->
              ("canary_agree_" ^ bench, !a) :: ("canary_disagree_" ^ bench, !d) :: acc)
            t.canary_bm [])
      |> List.sort compare
    in
    obs_kvs
    @ [
        ("canary_active", (match Atomic.get t.canary with Some _ -> 1 | None -> 0));
        ("canary_shadowed", Atomic.get t.canary_shadowed);
        ("canary_agree", Atomic.get t.canary_agree);
        ("canary_disagree", Atomic.get t.canary_disagree);
        ("canary_promotions", Atomic.get t.canary_promotions);
        ("canary_rollbacks", Atomic.get t.canary_rollbacks);
        ("canary_quarantined", Mutex.protect t.reload_m (fun () -> Hashtbl.length t.quarantined));
        ("canary_tau_stable_m", Atomic.get t.canary_tau_stable_m);
        ("canary_tau_candidate_m", Atomic.get t.canary_tau_candidate_m);
      ]
    @ per_benchmark
  in
  Protocol.Stats_reply
    ([
       ("requests", Atomic.get t.requests);
       ("errors", Atomic.get t.errors);
       ("connections", Atomic.get t.connections);
       ("busy_rejections", Atomic.get t.busy_rejections);
       ("reloads", Atomic.get t.reloads);
       ("pipelined", Atomic.get t.pipelined);
       ("result_cache_hits", Result_cache.hits t.cache);
       ("result_cache_misses", Result_cache.misses t.cache);
       ("result_cache_entries", Result_cache.length t.cache);
       ("result_cache_capacity", Result_cache.capacity t.cache);
       ("result_cache_evictions", Result_cache.evictions t.cache);
       ("rank_leaders", b.Batcher.leaders);
       ("rank_followers", b.Batcher.followers);
       ("encoder_hits", b.Batcher.encoder_hits);
       ("encoder_misses", b.Batcher.encoder_misses);
       ("arena_hits", b.Batcher.arena_hits);
       ("arena_misses", b.Batcher.arena_misses);
       ("pruned_subcubes", b.Batcher.cubes_pruned);
       ("pruned_candidates", b.Batcher.cands_pruned);
       ("scored_candidates", b.Batcher.cands_scored);
       ("queue_depth", Sorl_util.Bqueue.length t.queue);
       ("generation", (Atomic.get t.current).generation);
     ]
    @ by_generation @ neighbor_kvs @ learn_kvs)

(* ---- the result cache ---- *)

(* Everything that shapes a rank/tune reply is folded into the key:
   the model generation (bumped by reload, so stale entries are
   unreachable the moment a reload lands), the verb with its [top]
   parameter, and the benchmark.  [approx_ok] is deliberately {e not}
   part of the key: only exact replies are ever cached, so a [rank!]
   and a plain [rank] share the entry and converge on the same
   bytes. *)
let cache_key_of snapshot = function
  | Protocol.Rank { benchmark; top; approx_ok = _ } ->
    Some
      (Result_cache.key ~generation:snapshot.generation
         ~verb:("rank:" ^ string_of_int top) ~benchmark)
  | Protocol.Tune { benchmark; approx_ok = _ } ->
    Some (Result_cache.key ~generation:snapshot.generation ~verb:"tune" ~benchmark)
  | _ -> None

(* After [start] and after every successful reload, pre-rank every
   registered benchmark once and seed the cache with the replies the
   common request shapes would produce, so the first client query of a
   fresh generation is already a lookup.  Built from the same response
   constructors as the live path, so warmed and computed replies are
   byte-identical. *)
let warm_tops = [ 1; 3; 10 ]

let warm_cache t =
  if Result_cache.capacity t.cache > 0 then begin
    let snapshot = Atomic.get t.current in
    List.iter
      (fun inst ->
        let benchmark = Instance.name inst in
        match top_ranked_for t snapshot benchmark ~k:(List.fold_left max 1 warm_tops) with
        | Error _ -> ()
        | Ok (ranked, total) ->
          let put verb response =
            Result_cache.put t.cache
              (Result_cache.key ~generation:snapshot.generation ~verb ~benchmark)
              (Protocol.encode_response response)
          in
          if Array.length ranked > 0 then
            put "tune" (Protocol.Tuned { benchmark; tuning = ranked.(0); approx = false });
          List.iter
            (fun top ->
              put
                ("rank:" ^ string_of_int top)
                (ranked_response ~benchmark ~top ~total ranked))
            warm_tops)
      Benchmarks.instances
  end

(* ---- per-line handling ---- *)

(* [backfill], when set, is deferred exact work the worker runs only
   {e after} the batch's replies are written — a provisional reply is
   therefore always strictly followed by its exact cache back-fill,
   never interleaved with it. *)
type outcome = {
  reply : string;
  error : bool;
  bye : bool;
  backfill : (unit -> unit) option;
}

let outcome_of_response response =
  {
    reply = Protocol.encode_response response;
    error = (match response with Protocol.Error _ -> true | _ -> false);
    bye = response = Protocol.Bye;
    backfill = None;
  }

(* Install a new serving snapshot.  Must be called holding [reload_m];
   shared by [reload] and a successful [promote], so a promoted canary
   goes live through exactly the hot-swap path reload exercises —
   generation bump, atomic snapshot swap, cache warm before the reply
   is on the wire. *)
let install_locked t ~tuner ~model_name =
  let generation = (Atomic.get t.current).generation + 1 in
  Atomic.set t.current { tuner; model_name; generation };
  Atomic.incr t.reloads;
  (* Seed the new generation's entries before answering: once the
     reload reply is on the wire, hot queries are hot again.  The
     retired generation's entries are unreachable (wrong key) and
     age out of the LRU. *)
  if t.warm_on_reload then warm_cache t;
  generation

let handle_reload t ~model =
  Mutex.protect t.reload_m (fun () ->
      match load_source t.source ~name:model with
      | Error (code, msg) -> err code msg
      | Ok (tuner, model_name) ->
        let generation = install_locked t ~tuner ~model_name in
        Protocol.Reloaded { model = model_name; generation })

let handle_canary t ~model =
  Mutex.protect t.reload_m (fun () ->
      if Hashtbl.mem t.quarantined model then
        err Protocol.Canary_rejected
          (Printf.sprintf "model %S was rolled back and is quarantined; publish a new generation"
             model)
      else
        match t.source with
        | Model_file _ ->
          err Protocol.No_model "file-backed server cannot canary; restart with --store"
        | Store (store, _) -> (
          match Model_store.load store ~name:model with
          | Error msg -> err Protocol.Store msg
          | Ok tuner ->
            Atomic.set t.canary
              (Some { cn_name = model; cn_tuner = tuner; cn_tick = Atomic.make 0 });
            Protocol.Canaried { model }))

(* Decide the loaded canary on the observation log's held-out slice:
   the same deterministic split the trainer used, so the candidate is
   judged on records it never trained on.  Promotion requires the
   candidate's mean per-benchmark Kendall tau to be no worse than the
   stable generation's; otherwise the candidate is dropped and its
   name quarantined so a republished generation (not the same bytes)
   is needed to try again. *)
let handle_promote t =
  Mutex.protect t.reload_m (fun () ->
      match Atomic.get t.canary with
      | None -> err Protocol.Canary_rejected "no canary loaded (send a canary request first)"
      | Some cn -> (
        match t.obs with
        | None ->
          err Protocol.No_log
            "promote needs an observation log for the held-out comparison (start serve with \
             --obs-log)"
        | Some ol -> (
          match Sorl_learn.Obs_log.replay (Sorl_learn.Obs_log.path ol) with
          | Error msg -> err Protocol.Internal msg
          | Ok (obs, _clean) -> (
            let _train, held =
              Sorl_learn.Trainer.split ~holdout:t.holdout ~seed:t.holdout_seed obs
            in
            let stable = Atomic.get t.current in
            match
              ( Sorl_learn.Trainer.holdout_tau stable.tuner held,
                Sorl_learn.Trainer.holdout_tau cn.cn_tuner held )
            with
            | Some st, Some ct ->
              let milli x = int_of_float (Float.round (x *. 1000.)) in
              Atomic.set t.canary_tau_stable_m (milli st);
              Atomic.set t.canary_tau_candidate_m (milli ct);
              if Sorl_learn.Trainer.no_worse ~stable:st ~candidate:ct then begin
                let generation = install_locked t ~tuner:cn.cn_tuner ~model_name:cn.cn_name in
                Atomic.set t.canary None;
                Atomic.incr t.canary_promotions;
                Protocol.Promoted { model = cn.cn_name; generation }
              end
              else begin
                Atomic.set t.canary None;
                Hashtbl.replace t.quarantined cn.cn_name ();
                Atomic.incr t.canary_rollbacks;
                err Protocol.Canary_rejected
                  (Printf.sprintf
                     "candidate %s held-out tau %.4f is worse than stable %.4f; rolled back and \
                      quarantined"
                     cn.cn_name ct st)
              end
            | _ ->
              err Protocol.Canary_rejected
                "not enough held-out observations to compare (each benchmark needs >= 2 records \
                 with distinct costs)"))))

let dispatch ?incumbents t snapshot request =
  match request with
  | Protocol.Rank { benchmark; top; approx_ok = _ } ->
    handle_rank ?incumbents t snapshot ~benchmark ~top
  | Protocol.Tune { benchmark; approx_ok = _ } -> handle_tune ?incumbents t snapshot ~benchmark
  | Protocol.Observe { benchmark; tuning; cost } -> handle_observe t ~benchmark ~tuning ~cost
  | Protocol.Info -> handle_info t
  | Protocol.Stats -> handle_stats t
  | Protocol.Reload { model } -> handle_reload t ~model
  | Protocol.Canary { model } -> handle_canary t ~model
  | Protocol.Promote -> handle_promote t
  | Protocol.Shutdown ->
    Atomic.set t.stopping true;
    Protocol.Bye

(* A cache-missing [rank!]/[tune!] answered from the nearest indexed
   instance within the threshold.  The provisional reply reuses the
   neighbor's exact winners under the {e requested} benchmark's name
   and total; the exact computation (seeded with those winners as
   pruning incumbents) runs as the outcome's [backfill] and leaves the
   exact bytes in the cache, so the very next identical request is an
   exact hit.  Counts: [nn_hits]/[approx_replies] on a usable
   neighbor, [nn_misses] when no indexed instance qualifies. *)
let approx_reply t snapshot request key =
  let attempt ns ~benchmark ~need ~mk =
    match Sorl_stencil.Benchmarks.instance_by_name benchmark with
    | exception Not_found -> None (* exact path produces the proper error *)
    | inst -> (
      try
        let dim = Features.dim (Sorl.Autotuner.feature_mode snapshot.tuner) in
        let index = nn_sync ns snapshot ~dim in
        let v = nn_embedding ns snapshot inst in
        match
          Sorl_util.Nn_index.nearest ~max_dist:ns.nn_threshold ~exclude:benchmark index v
        with
        | Some (_, winners, _) when Array.length winners >= need ->
          Atomic.incr ns.nn_hits;
          Atomic.incr ns.approx_replies;
          let o = outcome_of_response (mk inst winners) in
          let backfill () =
            let exact = outcome_of_response (dispatch ~incumbents:winners t snapshot request) in
            if not exact.error then Result_cache.put t.cache key exact.reply
          in
          Some { o with backfill = Some backfill }
        | _ ->
          Atomic.incr ns.nn_misses;
          None
      with _ -> None)
  in
  match (t.neighbors, request) with
  | Some ns, Protocol.Rank { benchmark; top; approx_ok = true } ->
    attempt ns ~benchmark ~need:top ~mk:(fun inst winners ->
        Protocol.Ranked
          {
            benchmark;
            total = Tuning.predefined_size ~dims:(Kernel.dims (Instance.kernel inst));
            tunings = Array.to_list (Array.sub winners 0 top);
            approx = true;
          })
  | Some ns, Protocol.Tune { benchmark; approx_ok = true } ->
    attempt ns ~benchmark ~need:1 ~mk:(fun _inst winners ->
        Protocol.Tuned { benchmark; tuning = winners.(0); approx = true })
  | _ -> None

(* The hot path: a cacheable request under a warm cache is one LRU
   lookup; a cache-missing approx-tolerant request may get a
   provisional neighbor reply; everything else runs the full dispatch
   and (when it succeeded) leaves its encoded reply behind for the
   next identical query. *)
let exact_reply t snapshot request =
  match cache_key_of snapshot request with
  | Some key -> (
    match Result_cache.find t.cache key with
    | Some reply -> { reply; error = false; bye = false; backfill = None }
    | None -> (
      match approx_reply t snapshot request key with
      | Some o -> o
      | None ->
        let o = outcome_of_response (dispatch t snapshot request) in
        if not o.error then Result_cache.put t.cache key o.reply;
        o))
  | None -> outcome_of_response (dispatch t snapshot request)

(* ---- canary shadow scoring ---- *)

(* Decide whether this request is a shadow sample: a canary is loaded
   and the sampling clock (every [canary_every]-th rank/tune, counting
   cache hits — the canary must see the real traffic mix) fires. *)
let shadow_probe t request =
  match Atomic.get t.canary with
  | None -> None
  | Some cn -> (
    match request with
    | Protocol.Rank { benchmark; _ } | Protocol.Tune { benchmark; _ } ->
      let n = Atomic.fetch_and_add cn.cn_tick 1 in
      if n mod t.canary_every = 0 then Some (cn, benchmark) else None
    | _ -> None)

let shadow_record t ~benchmark ~agreed =
  Atomic.incr t.canary_shadowed;
  Atomic.incr (if agreed then t.canary_agree else t.canary_disagree);
  Mutex.protect t.canary_bm_m (fun () ->
      let a, d =
        match Hashtbl.find_opt t.canary_bm benchmark with
        | Some cell -> cell
        | None ->
          let cell = (ref 0, ref 0) in
          Hashtbl.replace t.canary_bm benchmark cell;
          cell
      in
      incr (if agreed then a else d))

(* Re-score a sampled request with the candidate and compare against
   the stable reply's tunings (parsed back from the bytes that
   actually went out, cache hits and warmed entries included).  Runs
   strictly after the reply is written — never on the reply path. *)
let shadow_work t cn ~benchmark reply =
  match Sorl_stencil.Benchmarks.instance_by_name benchmark with
  | exception Not_found -> ()
  | inst -> (
    let compare_top stable_tunings =
      let k = List.length stable_tunings in
      if k > 0 then begin
        let enc = Batcher.encoder t.batcher (Sorl.Autotuner.feature_mode cn.cn_tuner) inst in
        let dims = Kernel.dims (Instance.kernel inst) in
        let cand = fst (Sorl.Autotuner.top_k_pruned cn.cn_tuner enc ~dims ~k) in
        let agreed =
          Array.length cand = k
          && List.for_all2 Tuning.equal (Array.to_list cand) stable_tunings
        in
        shadow_record t ~benchmark ~agreed
      end
    in
    match Protocol.parse_response reply with
    | Ok (Protocol.Ranked { tunings; _ }) -> compare_top tunings
    | Ok (Protocol.Tuned { tuning; _ }) -> compare_top [ tuning ]
    | Ok _ | Error _ -> ())

let reply_for t snapshot request =
  let o = exact_reply t snapshot request in
  match shadow_probe t request with
  | None -> o
  | Some _ when o.error -> o
  | Some (cn, benchmark) ->
    let reply = o.reply in
    let work () = shadow_work t cn ~benchmark reply in
    let backfill =
      match o.backfill with
      | None -> work
      | Some f ->
        fun () ->
          f ();
          work ()
    in
    { o with backfill = Some backfill }

let handle_line t line =
  Atomic.incr t.requests;
  let outcome =
    Sorl_util.Telemetry.time_hist latency_hist (fun () ->
        match Protocol.parse_request line with
        | Error msg -> outcome_of_response (err Protocol.Bad_request msg)
        | Ok request -> (
          let snapshot = Atomic.get t.current in
          match reply_for t snapshot request with
          | outcome -> outcome
          | exception e -> outcome_of_response (err Protocol.Internal (Printexc.to_string e))))
  in
  if outcome.error then Atomic.incr t.errors;
  outcome

(* ---- worker loop ---- *)

(* Workers never see connections, only ready request batches: the
   reactor owns every descriptor and all reading.  A batch's replies
   are answered in request order into one buffer and leave in a single
   write, so an N-deep pipeline pays one syscall, not N flushes. *)
let worker_loop t reactor =
  (* Worker domains live for the whole server; requests they process
     must not fan out into a second level of Pool domains. *)
  Sorl_util.Pool.serially (fun () ->
      let buf = Buffer.create 512 in
      let rec loop () =
        match Sorl_util.Bqueue.pop t.queue with
        | None -> ()
        | Some { Reactor.conn; lines } ->
          Buffer.clear buf;
          let bye = ref false in
          let backfills = ref [] in
          List.iter
            (fun line ->
              (* Requests pipelined behind a shutdown are not served:
                 the channel-based loop stopped reading after [Bye]. *)
              if not !bye then begin
                let o =
                  Sorl_util.Telemetry.span "serve/request" (fun () -> handle_line t line)
                in
                Buffer.add_string buf o.reply;
                Buffer.add_char buf '\n';
                (match o.backfill with Some f -> backfills := f :: !backfills | None -> ());
                if o.bye then bye := true
              end)
            lines;
          let wrote =
            Reactor.write_all ~timeout_s:t.conn_timeout_s (Reactor.conn_fd conn)
              (Buffer.contents buf)
          in
          Reactor.complete reactor conn ~close:(!bye || Result.is_error wrote);
          (* Provisional replies are already on the wire; now compute
             their exact results and back-fill the cache.  A failure is
             dropped — the next exact query simply recomputes. *)
          List.iter (fun f -> try f () with _ -> ()) (List.rev !backfills);
          loop ()
      in
      loop ())

(* Calibrated on the registered suite (Extended mode) against measured
   ranking transfer, not just embedding geometry: distance predicts
   rank agreement only in the near-identical regime.  Blur size
   variants (4e-4) and edge vs game-of-life (0.0 — identical 3x3
   pattern encodings) transfer at Kendall tau 0.87-1.0; the next
   closest pair (laplacian6 size variants, 4.7e-3) already drops to
   tau ~0.3 with double-digit regret.  0.002 sits an order of
   magnitude from both populations. *)
let default_neighbor_threshold = 0.002

let start ?(address = Protocol.Unix_path "sorl.sock") ?workers ?(queue_capacity = 64)
    ?(conn_timeout_s = 10.) ?cache_capacity ?(max_connections = 512) ?(warm = true)
    ?(neighbors = 512) ?(neighbor_threshold = default_neighbor_threshold)
    ?obs_log ?obs_roll ?obs_fsync ?(canary_fraction = 1.)
    ?(holdout = Sorl_learn.Trainer.default_holdout)
    ?(holdout_seed = Sorl_learn.Trainer.default_seed) source =
  let workers =
    match workers with Some w -> w | None -> Sorl_util.Pool.default_domains ()
  in
  if workers < 1 then Error "Server.start: workers must be >= 1"
  else if not (Float.is_finite canary_fraction) || canary_fraction <= 0. || canary_fraction > 1.
  then Error "Server.start: canary_fraction must be in (0, 1]"
  else if not (Float.is_finite holdout) || holdout < 0. || holdout >= 1. then
    Error "Server.start: holdout must be in [0, 1)"
  else
    let obs_writer =
      match obs_log with
      | None -> Ok None
      | Some path ->
        Result.map Option.some
          (Sorl_learn.Obs_log.create ?roll_at:obs_roll ?fsync_on_seal:obs_fsync path)
    in
    match obs_writer with
    | Error msg -> Error msg
    | Ok obs -> (
    match load_source source ~name:None with
    | Error (_, msg) -> Error msg
    | Ok (tuner, model_name) -> (
      match make_listener address with
      | Error _ as e -> e
      | Ok (listen_fd, address) ->
        (* A client vanishing mid-reply must not kill the server. *)
        (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
        let neighbor_state =
          if neighbors <= 0 then None
          else
            Some
              {
                nn_threshold = neighbor_threshold;
                nn_capacity = neighbors;
                nn_m = Mutex.create ();
                nn_generation = 0;
                nn_index =
                  Sorl_util.Nn_index.create ~capacity:neighbors
                    ~dim:(Features.dim (Sorl.Autotuner.feature_mode tuner))
                    ();
                embeds = Hashtbl.create 32;
                nn_hits = Atomic.make 0;
                nn_misses = Atomic.make 0;
                approx_replies = Atomic.make 0;
              }
        in
        let canary_every =
          if canary_fraction >= 1. then 1
          else max 1 (int_of_float (Float.round (1. /. canary_fraction)))
        in
        let t =
          {
            address;
            source;
            current = Atomic.make { tuner; model_name; generation = 0 };
            obs;
            observations = Atomic.make 0;
            holdout;
            holdout_seed;
            canary_every;
            canary = Atomic.make None;
            quarantined = Hashtbl.create 8;
            canary_shadowed = Atomic.make 0;
            canary_agree = Atomic.make 0;
            canary_disagree = Atomic.make 0;
            canary_promotions = Atomic.make 0;
            canary_rollbacks = Atomic.make 0;
            canary_tau_stable_m = Atomic.make 0;
            canary_tau_candidate_m = Atomic.make 0;
            canary_bm_m = Mutex.create ();
            canary_bm = Hashtbl.create 32;
            batcher = Batcher.create ();
            cache = Result_cache.create ?capacity:cache_capacity ();
            neighbors = neighbor_state;
            warm_on_reload = warm;
            workers;
            conn_timeout_s;
            listen_fd;
            queue = Sorl_util.Bqueue.create ~capacity:queue_capacity;
            stopping = Atomic.make false;
            reload_m = Mutex.create ();
            started_at = Unix.gettimeofday ();
            requests = Atomic.make 0;
            errors = Atomic.make 0;
            connections = Atomic.make 0;
            busy_rejections = Atomic.make 0;
            reloads = Atomic.make 0;
            pipelined = Atomic.make 0;
            reactor = None;
            reactor_domain = None;
            worker_domains = [];
            joined = false;
          }
        in
        (* Warm before accepting: the first query of every benchmark is
           already served from the cache. *)
        if warm then warm_cache t;
        let reactor =
          Reactor.create ~listen_fd ~queue:t.queue ~stopping:t.stopping ~max_connections
            ~idle_timeout_s:conn_timeout_s
            ~busy_reply:
              (Protocol.encode_response (err Protocol.Busy "server busy, retry later"))
            ~on_connection:(fun () ->
              Atomic.incr t.connections;
              Sorl_util.Telemetry.observe queue_depth_hist
                (float_of_int (Sorl_util.Bqueue.length t.queue)))
            ~on_shed:(fun () -> Atomic.incr t.busy_rejections)
            ~on_pipelined:(fun n -> ignore (Atomic.fetch_and_add t.pipelined n))
            ()
        in
        t.reactor <- Some reactor;
        t.worker_domains <-
          List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t reactor));
        t.reactor_domain <- Some (Domain.spawn (fun () -> Reactor.run reactor));
        Ok t))

let address t = t.address
let generation t = (Atomic.get t.current).generation
let stop t = Atomic.set t.stopping true

let wait t =
  if not t.joined then begin
    t.joined <- true;
    (match t.reactor_domain with Some d -> Domain.join d | None -> ());
    List.iter Domain.join t.worker_domains;
    (match t.obs with Some ol -> Sorl_learn.Obs_log.close ol | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    match t.address with
    | Protocol.Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Protocol.Tcp _ -> ()
  end

let requests_served t = Atomic.get t.requests
