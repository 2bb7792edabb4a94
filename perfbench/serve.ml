(* serve-hot and serve-cold, plus the read load and server-stats
   plumbing that learn-cycle shares. *)

open Sorl_stencil

let now = Trace.now

(* Seeded skewed request order: Zipf(1) weights over the benchmarks in
   registry order (Benchmarks.instances, whose six 2-D instances come
   first), then a uniform request shape of that benchmark.  The skew is
   an assumption: the repository holds no request trace to base it on.
   Every seed asks for the same mix and seeds differ only in the order;
   each run prints the share of 3-D requests it actually sent. *)
let picker rng (shapes : Oracle.shape array) =
  let names = Array.of_list (List.map Instance.name Benchmarks.instances) in
  let by_name = Hashtbl.create 32 in
  Array.iteri
    (fun i (s : Oracle.shape) ->
      let n = Instance.name s.inst in
      Hashtbl.replace by_name n (i :: Option.value ~default:[] (Hashtbl.find_opt by_name n)))
    shapes;
  let groups = Array.map (fun n -> Array.of_list (List.rev (Hashtbl.find by_name n))) names in
  let cum = Array.make (Array.length names) 0. in
  Array.iteri
    (fun r _ -> cum.(r) <- (if r = 0 then 0. else cum.(r - 1)) +. (1. /. float_of_int (r + 1)))
    names;
  let total = cum.(Array.length cum - 1) in
  fun () ->
    let x = Sorl_util.Rng.float rng total in
    let r = ref 0 in
    while !r < Array.length cum - 1 && cum.(!r) < x do incr r done;
    let g = groups.(!r) in
    g.(Sorl_util.Rng.int rng (Array.length g))

type reads = {
  lat : Meter.samples;  (** round trips, seconds; a failed read is +inf *)
  ends : Meter.samples;  (** when each reply arrived *)
  mutable sent : int;
  mutable sent_3d : int;  (** requests for a 3-D benchmark *)
  mutable records : (int * float * int) list;  (** (shape, round trip, request id) while recording *)
}

let new_reads () = { lat = Meter.samples (); ends = Meter.samples (); sent = 0; sent_3d = 0; records = [] }

(* The measured share of 3-D requests, for the provenance lines. *)
let mix (rs : reads list) =
  let sent = List.fold_left (fun a (x : reads) -> a + x.sent) 0 rs in
  let d3 = List.fold_left (fun a (x : reads) -> a + x.sent_3d) 0 rs in
  [ ("reads_3d_share", Printf.sprintf "%.4f (%d of %d reads)" (float_of_int d3 /. float_of_int (max 1 sent)) d3 sent) ]

(* Throughput and latency per [window] seconds of reads, over every
   full window; the run reports the median window, so a burst of load
   from outside the benchmark moves one window, not the result. *)
let window = 1.0

(* Full windows of one phase (the clients of one server, reading
   together) as (round trips, seconds covered); a window never spans
   two servers.  A phase shorter than a window is one window of its
   own length. *)
let phase_windows (rs : reads list) =
  let a =
    Array.concat
      (List.map
         (fun (x : reads) ->
           let lat = Meter.to_array x.lat in
           Array.mapi (fun i e -> (e, lat.(i))) (Meter.to_array x.ends))
         rs)
  in
  if a = [||] then []
  else begin
    Array.sort compare a;
    let t0 = fst a.(0) and t1 = fst a.(Array.length a - 1) in
    let last = int_of_float ((t1 -. t0) /. window) in
    if last = 0 then [ (Array.map snd a, Float.max (t1 -. t0) 1e-6) ]
    else begin
      let buckets = Array.make (last + 1) [] in
      Array.iter
        (fun (e, l) ->
          let b = int_of_float ((e -. t0) /. window) in
          buckets.(b) <- l :: buckets.(b))
        a;
      List.filteri (fun b _ -> b < last) (Array.to_list buckets)
      |> List.map (fun ls -> (Array.of_list ls, window))
    end
  end

let windows phases =
  let full = List.concat_map phase_windows phases in
  let f g = Array.of_list (List.map g full) in
  ( f (fun (ls, len) -> float_of_int (Array.length ls) /. len),
    f (fun (ls, _) -> Meter.quantile ls 0.5),
    f (fun (ls, _) -> Meter.quantile ls 0.99) )

(* The served end-to-end read metrics of [rs] (the untraced phases). *)
let read_metrics phases =
  let rate, p50, p99 = windows phases in
  let n = List.fold_left (fun a (x : reads) -> a + x.lat.Meter.n) 0 (List.concat phases) in
  [
    { (Meter.of_samples "req_per_s" "req/s" rate) with Meter.n };
    { (Meter.of_samples "latency_p50_ms" "ms" ~scale:1e3 p50) with Meter.n };
    { (Meter.of_samples "latency_p99_ms" "ms" ~scale:1e3 p99) with Meter.n };
  ]

(* Closed loop on one connection: the next request leaves only after
   the previous reply arrived, as a caller that needs the configuration
   before launching its kernel would. *)
let read_loop ~address ~(shapes : Oracle.shape array) ~oracle ~pick ~until ~record (acc : reads) =
  match Wire.connect address with
  | exception e -> Meter.check false (lazy ("connect: " ^ Printexc.to_string e))
  | conn ->
    let rec loop () =
      if not (until ()) then begin
        let i = pick () and req = Trace.fresh_req () in
        if Kernel.dims (Instance.kernel shapes.(i).inst) = 3 then acc.sent_3d <- acc.sent_3d + 1;
        let t0 = now () in
        match Wire.call conn shapes.(i).line with
        | exception e ->
          acc.sent <- acc.sent + 1;
          Meter.add acc.lat infinity;
          Meter.add acc.ends (now ());
          Meter.check false (lazy ("read: " ^ Printexc.to_string e))
        | reply ->
          let t1 = now () in
          acc.sent <- acc.sent + 1;
          let ok = Oracle.accepts oracle i reply ~sent:t0 ~recv:t1 in
          Meter.add acc.lat (if ok then t1 -. t0 else infinity);
          Meter.add acc.ends t1;
          if record then acc.records <- (i, t1 -. t0, req) :: acc.records;
          Trace.record ~req "client.round_trip" ~t0 ~t1;
          Meter.check ok (lazy (Printf.sprintf "oracle: %S -> %S" shapes.(i).line reply));
          loop ()
      end
    in
    loop ();
    Wire.close conn

(* Two closed-loop clients, one per domain, until [stop_at]. *)
let two_clients ~address ~shapes ~oracle ~env ~stream ~stop_at ~record =
  let until () = now () >= stop_at in
  let go k acc () =
    read_loop ~address ~shapes ~oracle ~pick:(picker (Env.stream env (stream + k)) shapes) ~until
      ~record acc
  in
  let a = new_reads () and b = new_reads () in
  let d = Domain.spawn (go 1 b) in
  go 0 a ();
  Domain.join d;
  [ a; b ]

(* ---- server stats ---- *)

let stats address =
  match Sorl_serve.Client.connect ~timeout_s:10. address with
  | Error m -> Error m
  | Ok c ->
    let r = Sorl_serve.Client.stats c in
    Sorl_serve.Client.close c;
    r

let stat kvs k = Option.value ~default:0 (List.assoc_opt k kvs)

(* Counters summed over the rounds of one run. *)
type counters = {
  mutable requests : int;
  mutable busy : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable leaders : int;
  mutable followers : int;
  mutable arena_hits : int;
  mutable arena_misses : int;
}

let counters () =
  { requests = 0; busy = 0; cache_hits = 0; cache_misses = 0; leaders = 0; followers = 0; arena_hits = 0; arena_misses = 0 }

(* Read the server's stats and reconcile its request count with the
   requests this benchmark sent it ([sent] excludes the stats request
   itself, which the server counts too). *)
let reconcile c address ~sent =
  match stats address with
  | Error m -> Meter.check false (lazy ("stats: " ^ m))
  | Ok kvs ->
    let requests = stat kvs "requests" in
    Meter.check (requests = sent + 1)
      (lazy (Printf.sprintf "stats: server counted %d requests, benchmark sent %d" requests (sent + 1)));
    c.requests <- c.requests + requests;
    c.busy <- c.busy + stat kvs "busy_rejections";
    c.cache_hits <- c.cache_hits + stat kvs "result_cache_hits";
    c.cache_misses <- c.cache_misses + stat kvs "result_cache_misses";
    c.leaders <- c.leaders + stat kvs "rank_leaders";
    c.followers <- c.followers + stat kvs "rank_followers";
    c.arena_hits <- c.arena_hits + stat kvs "arena_hits";
    c.arena_misses <- c.arena_misses + stat kvs "arena_misses"

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

let counter_metrics c =
  [
    Meter.metric "server.requests" "count" (float_of_int c.requests);
    Meter.metric "server.busy" "count" (float_of_int c.busy);
    Meter.metric "result_cache.hit_ratio" "ratio" (ratio c.cache_hits c.cache_misses);
    Meter.metric "batcher.coalesced_ratio" "ratio" (ratio c.followers c.leaders);
    Meter.metric "batcher.arena_hit_ratio" "ratio" (ratio c.arena_hits c.arena_misses);
  ]

(* ---- the per-layer view of served reads ---- *)

(* Evenly spaced subsample, so the in-process replay stays short. *)
let subsample n l =
  let a = Array.of_list (List.rev l) in
  let len = Array.length a in
  if len <= n then a else Array.init n (fun j -> a.(j * len / n))

let us x = 1e6 *. x

(* Layer metrics of a replay; [hot] workloads rarely reach top-k, so
   the top-k figures come from every top-k span the run recorded. *)
let replay_metrics (rp : Probe.replay) ~encode_s =
  let st = rp.Probe.stages in
  let col f = Array.map f st in
  let rtt = col (fun s -> s.Probe.rtt) in
  let compute = col Probe.compute in
  let transport = Array.map2 ( -. ) rtt compute in
  let misses = List.filter (fun s -> not s.Probe.hit) (Array.to_list st) |> Array.of_list in
  let topk = Array.append (Trace.durations "autotuner.top_k_pruned") (Trace.durations "autotuner.top_k") in
  let q xs p = Meter.quantile xs p in
  [
    Meter.metric "protocol.parse_us" "us" (us (q (col (fun s -> s.Probe.parse)) 0.5));
    Meter.metric "protocol.encode_us" "us" (us (q encode_s 0.5));
    Meter.metric "server.transport_us" "us" (us (q transport 0.5));
    Meter.metric "features.encoder_us" "us"
      (us (if misses = [||] then 0. else q (Array.map (fun s -> s.Probe.encoder) misses) 0.5));
    Meter.metric "autotuner.top_k_p50_us" "us" (us (q topk 0.5));
    Meter.metric "autotuner.top_k_p99_us" "us" (us (q topk 0.99));
    Meter.metric "autotuner.scored_candidates" "count" (float_of_int rp.Probe.scored);
    Meter.metric "autotuner.scored_ratio" "ratio"
      (if rp.Probe.grid = 0 then 0. else float_of_int rp.Probe.scored /. float_of_int rp.Probe.grid);
    Meter.metric "request.rtt_p50_us" "us" (us (q rtt 0.5));
    Meter.metric "request.rtt_p99_us" "us" (us (q rtt 0.99));
    Meter.metric "request.stage_sum_p50_us" "us" (us (q compute 0.5));
    Meter.metric "request.stage_sum_p99_us" "us" (us (q compute 0.99));
    Meter.metric "request.transport_p99_us" "us" (us (q transport 0.99));
  ]

(* Printed next to each other: per-stage medians and p99s, their sum,
   and the measured round trip. *)
let print_decomposition (rp : Probe.replay) =
  let st = rp.Probe.stages in
  let row name f =
    let xs = Array.map f st in
    Printf.printf "#   %-26s p50 %9.1f us   p99 %9.1f us\n" name
      (us (Meter.quantile xs 0.5)) (us (Meter.quantile xs 0.99))
  in
  Printf.printf "# request decomposition over %d replayed requests (%d cold):\n"
    (Array.length st) (Array.length (List.filter (fun s -> not s.Probe.hit) (Array.to_list st) |> Array.of_list));
  row "parse" (fun s -> s.Probe.parse);
  row "result-cache lookup" (fun s -> s.Probe.lookup);
  row "encoder compile/lookup" (fun s -> s.Probe.encoder);
  row "prune+score+select" (fun s -> s.Probe.select);
  row "reply encode" (fun s -> s.Probe.encode);
  row "stage sum" Probe.compute;
  row "transport/queue (derived)" (fun s -> s.Probe.rtt -. Probe.compute s);
  row "measured round trip" (fun s -> s.Probe.rtt)

let kernel_metrics (k : Probe.kernel_costs) =
  [
    Meter.metric "features.compile_us" "us" (us (Meter.median k.Probe.compile_s));
    Meter.metric "features.encode_ns" "ns" (Meter.median k.Probe.encode_ns);
    Meter.metric "features.bounder_us" "us" (us (Meter.median k.Probe.bounder_s));
    Meter.metric "model.score_ns" "ns" (Meter.median k.Probe.score_ns);
  ]

(* ---- serve-hot / serve-cold ---- *)

let rounds = 4
let replay_cap = 4000

let run (env : Env.t) ~cold =
  let tops = if cold then [ 1; 3; 10; 25; 50 ] else [ 1; 3; 10 ] in
  let shapes = Oracle.shapes ~tops in
  let tuner = Env.train_model () in
  let st = Env.store env in
  (match Sorl_serve.Model_store.save st ~name:"base" tuner with
  | Ok () -> ()
  | Error m -> failwith ("save: " ^ m));
  let tbl = Oracle.table tuner shapes in
  let args =
    [ "--store"; Sorl_serve.Model_store.dir st; "--name"; "base" ] @ if cold then [ "--cache"; "0" ] else []
  in
  let setups = ref [] and rss = ref [] and untraced = ref [] and traced = ref [] in
  let records = ref [] in
  let c = counters () in
  for r = 0 to rounds - 1 do
    let t0 = now () in
    match Serverproc.start ~exe:env.Env.exe ~workdir:env.Env.workdir args with
    | Error m -> Meter.check false (lazy ("server start: " ^ m))
    | Ok server ->
      setups := (now () -. t0) :: !setups;
      let oracle = Oracle.create tbl in
      let slice = Float.max 0.5 (Env.left env /. float_of_int (rounds - r)) in
      let phase ~stream ~len ~record =
        two_clients ~address:server.Serverproc.address ~shapes ~oracle ~env ~stream
          ~stop_at:(now () +. len) ~record
      in
      let plain =
        phase ~stream:(100 * r) ~len:(if env.Env.trace then slice /. 2. else slice) ~record:false
      in
      untraced := plain :: !untraced;
      let all =
        if env.Env.trace then begin
          Atomic.set Trace.enabled true;
          let rs = phase ~stream:((100 * r) + 50) ~len:(slice /. 2.) ~record:true in
          Atomic.set Trace.enabled false;
          traced := rs :: !traced;
          List.iter (fun (x : reads) -> records := x.records @ !records) rs;
          plain @ rs
        end
        else plain
      in
      let sent = List.fold_left (fun a (x : reads) -> a + x.sent) 0 all in
      reconcile c server.Serverproc.address ~sent;
      rss := Serverproc.peak_rss_mb server.Serverproc.pid :: !rss;
      Meter.check (Serverproc.stop server) (lazy "server did not shut down cleanly")
  done;
  let e2e =
    [ Meter.of_samples "setup_s" "s" (Array.of_list !setups) ]
    @ read_metrics !untraced
    @ [
      Meter.of_samples "peak_rss_mb" "MiB" (Array.of_list !rss);
    ]
  in
  let layers =
    if not env.Env.trace then []
    else begin
      Atomic.set Trace.enabled true;
      (* the oracle's top-k per benchmark: the ranking path's cost even
         where every served request is a cache hit *)
      ignore (Oracle.responses tuner shapes);
      let recs = subsample replay_cap !records in
      let rp = Probe.replay ~tuner ~shapes ~tbl ~cache:(not cold) recs in
      let encode_s = Probe.encode_times ~tbl recs in
      let k = Probe.kernel_costs tuner in
      Atomic.set Trace.enabled false;
      print_decomposition rp;
      let lat_of ph = Meter.merge (List.map (fun (x : reads) -> x.lat) (List.concat ph)) in
      let tl = lat_of !traced and ul = lat_of !untraced in
      counter_metrics c @ replay_metrics rp ~encode_s @ kernel_metrics k
      @ [ Meter.metric "trace_overhead" "ratio" (Meter.median tl /. Meter.median ul) ]
    end
  in
  {
    Meter.e2e;
    layers;
    rounds = List.length !setups;
    clients = "2 (closed loop)";
    mix = mix (List.concat (!untraced @ !traced));
  }
