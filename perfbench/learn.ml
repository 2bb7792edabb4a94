(* learn-cycle: writes beside reads.  One domain (the "trainer")
   streams observe batches through Client.Observer and, at each cycle
   boundary — only after the server has acked that cycle's
   observations, so every run trains on the same log — compacts the
   log when it has piled up segments, retrains incrementally, checks
   the candidate on the held-out slice, saves it (or, when the check
   rejects it, the serving weights again), canaries and promotes it.
   The other domain keeps sending
   rank/tune.  A round is set-up (history seeding, server spawn) plus
   [cycles] cycles; a run repeats rounds until its time is up, and
   every round must reach the same models and the same held-out tau. *)

open Sorl_stencil
open Sorl_learn

let now = Trace.now

(* The stream's shape.  These are assumptions, not measurements: the
   repository holds no production observation trace.  The duplicate
   share sits between the 1x and 3x re-observation rows of
   `bench online-learn' (2% and 67% duplicates); each run prints the
   duplicate share it actually generated.  The sizes keep a round
   (set-up plus [cycles] cycles) to a few seconds, so a run holds
   several rounds. *)
let cycles = 8
let history = 2048
let per_cycle = 512
let duplicate_share = 0.5
let roll_at = 256
let ack_batch = 64
let compact_at_segments = 8
let mode = Features.Extended
let solver_params = Sorl_svmrank.Solver_dcd.default_params
let solver = Sorl.Autotuner.Dcd solver_params

(* Seeded observation stream: a [duplicate_share] of draws repeat an
   already observed point (re-measured with up to 2% noise), the rest
   are fresh points of the predefined grids. *)
let observations (env : Env.t) =
  let rng = Env.stream env 31 in
  let measure = Sorl_machine.Measure.model ~seed:env.Env.seed Sorl_machine.Machine_desc.xeon_e5_2680_v3 in
  let insts = Array.of_list Benchmarks.instances in
  let seen = ref [||] and n_seen = ref 0 in
  let remember p =
    if !n_seen = Array.length !seen then begin
      let a = Array.make (max 64 (2 * !n_seen)) p in
      Array.blit !seen 0 a 0 !n_seen;
      seen := a
    end;
    !seen.(!n_seen) <- p;
    incr n_seen
  in
  let draw () =
    let inst, tuning =
      if !n_seen > 0 && Sorl_util.Rng.float rng 1. < duplicate_share then
        !seen.(Sorl_util.Rng.int rng !n_seen)
      else begin
        let inst = Sorl_util.Rng.choose rng insts in
        let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
        let p = (inst, Sorl_util.Rng.choose rng set) in
        remember p;
        p
      end
    in
    let noise = 1. +. (0.02 *. (Sorl_util.Rng.float rng 2. -. 1.)) in
    { Obs_log.benchmark = Instance.name inst; tuning; cost = noise *. Sorl_machine.Measure.runtime measure inst tuning }
  in
  let hist = List.init history (fun _ -> draw ()) in
  let cyc = List.init cycles (fun _ -> List.init per_cycle (fun _ -> draw ())) in
  (hist, cyc)

(* The share of observations that repeat an earlier (benchmark,
   tuning) of the stream, history included. *)
let measured_duplicate_share (obs : Obs_log.obs list) =
  let seen = Hashtbl.create 4096 in
  let dups =
    List.fold_left
      (fun a (o : Obs_log.obs) ->
        let k = (o.Obs_log.benchmark, o.Obs_log.tuning) in
        if Hashtbl.mem seen k then a + 1
        else begin
          Hashtbl.add seen k ();
          a
        end)
      0 obs
  in
  Printf.sprintf "%.4f (%d of %d observations)" (float_of_int dups /. float_of_int (List.length obs)) dups
    (List.length obs)

let ok_or what = function Ok x -> x | Error m -> failwith (what ^ ": " ^ m)

(* ---- the retrain, one layer down (traced rounds only) ---- *)

type decomposition = {
  replay_s : float;
  encode_s : float;
  assemble_s : float;
  pairs_s : float;
  solve_s : float;
  segments : int;
  pair_count : int;
  model : string;
}

(* Group the training records into one query per benchmark in
   first-appearance order, as Trainer.retrain_incremental does. *)
let assemble joined =
  let order = ref [] and tbl = Hashtbl.create 32 in
  List.iter
    (fun ((r : Obs_log.record), f) ->
      let name = r.Obs_log.obs.Obs_log.benchmark in
      match Hashtbl.find_opt tbl name with
      | Some b -> b := (r, f) :: !b
      | None ->
        order := name :: !order;
        Hashtbl.add tbl name (ref [ (r, f) ]))
    joined;
  List.concat
    (List.mapi
       (fun qi name ->
         List.rev_map
           (fun ((r : Obs_log.record), features) ->
             {
               Sorl_svmrank.Dataset.query = qi;
               features;
               runtime = r.Obs_log.obs.Obs_log.cost;
               tag = name ^ "@" ^ Tuning.to_string r.Obs_log.obs.Obs_log.tuning;
             })
           !(Hashtbl.find tbl name))
       (List.rev !order))
  |> Sorl_svmrank.Dataset.create ~dim:(Features.dim mode)

(* Read-only: sidecars are loaded, never written, so the real retrain
   that follows sees the log exactly as an untraced run would. *)
let decompose dir ~init =
  let (segs, tail, _), replay_s = Probe.timed "obs_log.replay_segments" (fun () -> ok_or "replay" (Obs_log.replay_segments dir)) in
  let rows, encode_s =
    Probe.timed "trainer.encode" (fun () ->
        List.concat_map
          (fun (seg : Obs_log.segment) ->
            let rows =
              match Trace.span "enc_cache.load" (fun () -> Enc_cache.load ~mode seg) with
              | Some rows -> rows
              | None -> Trace.span "enc_cache.encode" (fun () -> Enc_cache.encode ~mode seg.Obs_log.seg_records)
            in
            List.combine seg.Obs_log.seg_records (Array.to_list rows))
          segs
        @ List.combine tail (Array.to_list (Trace.span "enc_cache.encode" (fun () -> Enc_cache.encode ~mode tail))))
  in
  let ds, assemble_s =
    Probe.timed "dataset.create" (fun () ->
        rows
        |> List.filter_map (fun ((r : Obs_log.record), f) ->
               match f with
               | None -> None
               | Some f -> if fst (Trainer.split [ r.Obs_log.obs ]) = [] then None else Some (r, f))
        |> assemble)
  in
  let zs, pairs_s =
    Probe.timed "dataset.pairs" (fun () ->
        (* Solver_dcd.train draws its pairs from this generator *)
        let rng = Sorl_util.Rng.create (solver_params.Sorl_svmrank.Solver_dcd.seed + 104729) in
        let pairs =
          Sorl_svmrank.Dataset.pairs ?max_per_query:solver_params.Sorl_svmrank.Solver_dcd.max_pairs_per_query
            ~rng ds
        in
        Sorl_svmrank.Solver_common.pair_diffs ds pairs)
  in
  let model, solve_s =
    Probe.timed "solver.solve" (fun () ->
        Sorl_svmrank.Solver_dcd.train_on_pairs ~init ~params:solver_params
          ~dim:(Sorl_svmrank.Dataset.dim ds) zs)
  in
  {
    replay_s;
    encode_s;
    assemble_s;
    pairs_s;
    solve_s;
    segments = List.length segs;
    pair_count = Array.length zs;
    model = Sorl.Autotuner.to_string (Sorl.Autotuner.of_model ~mode model);
  }

let stage_sum d = d.replay_s +. d.encode_s +. d.assemble_s +. d.pairs_s +. d.solve_s

(* ---- one round ---- *)

type cycle = {
  observe_per_s : float;
  acks : float list;  (** per-batch ack round trips, seconds *)
  compact_s : float option;
  retrain_s : float;
  cached : int;
  encoded : int;
  save_s : float;
  load_s : float;
  tau_s : float;
  promote_s : float;
  accepted : bool;  (** the retrained candidate passed the trainer's check *)
  decomposition : decomposition option;
}

type round = {
  setup : float;
  rss : float;
  cycles_done : cycle list;
  tau : float;
  models : string list;
  wall : float;
  reads : Serve.reads;
  traced : bool;
}

let write_history dir hist =
  let w = ok_or "obs log" (Obs_log.create ~roll_at dir) in
  List.iter (Obs_log.append w) hist;
  Obs_log.seal w;
  Obs_log.close w

(* Observations the log replays (an aggregate counts its merged
   records) and its sealed segments. *)
let logged dir =
  let segs, tail, _ = ok_or "replay" (Obs_log.replay_segments dir) in
  let count rs = List.fold_left (fun a (r : Obs_log.record) -> a + r.Obs_log.count) 0 rs in
  (List.fold_left (fun a (s : Obs_log.segment) -> a + count s.Obs_log.seg_records) (count tail) segs, List.length segs)

type shared = {
  env : Env.t;
  base : Sorl.Autotuner.t;
  shapes : Oracle.shape array;
  tables : (string, Oracle.table) Hashtbl.t;  (** by model text: rounds repeat the same models *)
  hist : Obs_log.obs list;
  cyc : Obs_log.obs list list;
}

let table sh tuner =
  let key = Digest.string (Sorl.Autotuner.to_string tuner) in
  match Hashtbl.find_opt sh.tables key with
  | Some t -> t
  | None ->
    let t = Oracle.table tuner sh.shapes in
    Hashtbl.add sh.tables key t;
    t

let cycle sh ~client ~dir ~store ~oracle ~stable ~k ~traced ~sent =
  (* stream this cycle's observations, one ack train per batch *)
  let obs = List.nth sh.cyc k in
  let observer = Sorl_serve.Client.Observer.create ~batch:max_int client in
  let acks = ref [] and n = ref 0 in
  let flush () =
    let t = now () in
    let r = Trace.span "client.observer.flush" (fun () -> Sorl_serve.Client.Observer.flush observer) in
    acks := (now () -. t) :: !acks;
    Meter.check (Result.is_ok r) (lazy "observe: flush failed")
  in
  let t0 = now () in
  List.iter
    (fun (o : Obs_log.obs) ->
      Meter.check
        (Result.is_ok (Sorl_serve.Client.Observer.send observer ~benchmark:o.Obs_log.benchmark ~tuning:o.Obs_log.tuning ~cost:o.Obs_log.cost))
        (lazy "observe: send failed");
      incr n;
      if !n mod ack_batch = 0 then flush ())
    obs;
  flush ();
  let stream_s = now () -. t0 in
  sent := !sent + per_cycle;
  let acked = Sorl_serve.Client.Observer.acked observer in
  Meter.check (acked = per_cycle && Sorl_serve.Client.Observer.rejected observer = 0)
    (lazy (Printf.sprintf "observe: %d of %d acked" acked per_cycle));
  (* every acked observation is in the log *)
  let expected = history + ((k + 1) * per_cycle) in
  let logged, segments = logged dir in
  Meter.check (logged = expected) (lazy (Printf.sprintf "obs log replays %d observations, %d acked" logged expected));
  let compact_s =
    if segments < compact_at_segments then None
    else
      Some
        (snd (Probe.timed "obs_log.compact" (fun () -> ignore (ok_or "compact" (Obs_log.compact dir)))))
  in
  let init = Sorl.Autotuner.weights stable in
  let decomposition = if traced then Some (decompose dir ~init) else None in
  let inc, retrain_s =
    Probe.timed "trainer.retrain_incremental" (fun () ->
        ok_or "retrain" (Trainer.retrain_incremental ~solver ~init ~mode dir))
  in
  let cand = inc.Trainer.tuner in
  let text = Sorl.Autotuner.to_string cand in
  Option.iter
    (fun d -> Meter.check (String.equal d.model text) (lazy "learn: decomposed retrain lands on a different model"))
    decomposition;
  (* the trainer's own held-out check, on the slice of the log as it
     stands — the same comparison the server's promote makes *)
  let obs_now, _ = ok_or "replay" (Obs_log.replay dir) in
  let _, held = Trainer.split obs_now in
  let (st, ct), tau_s =
    Probe.timed "trainer.holdout_tau" (fun () -> (Trainer.holdout_tau stable held, Trainer.holdout_tau cand held))
  in
  let accepted = match (st, ct) with Some s, Some c -> Trainer.no_worse ~stable:s ~candidate:c | _ -> false in
  (* A candidate the check rejects is not shipped; the serving weights
     are republished instead.  Every cycle thus runs the same save,
     canary, promote and install-with-re-warm path, and the work per
     cycle does not depend on which way a near-tie fell for the seed. *)
  let ship = if accepted then cand else stable in
  let name = Printf.sprintf "cycle-%d" k in
  let (), save_s = Probe.timed "model_store.save" (fun () -> ok_or "save" (Sorl_serve.Model_store.save store ~name ship)) in
  let loaded, load_s = Probe.timed "model_store.load" (fun () -> ok_or "load" (Sorl_serve.Model_store.load store ~name)) in
  Meter.check
    (String.equal (Sorl.Autotuner.to_string loaded) (Sorl.Autotuner.to_string ship))
    (lazy "model store round trip changed the model");
  let ship_tbl = table sh ship in
  let canaried = Sorl_serve.Client.canary client ~model:name in
  incr sent;
  Meter.check (Result.is_ok canaried) (lazy "canary refused");
  let t = now () in
  Oracle.begin_switch oracle ship_tbl ~at:t;
  let promoted = Trace.span "client.promote" (fun () -> Sorl_serve.Client.promote client) in
  let t1 = now () in
  incr sent;
  let installed = Result.is_ok promoted in
  Oracle.end_switch oracle ~installed ~at:t1;
  Meter.check installed (lazy "promote: the server rejected a candidate no worse than the serving model");
  let stable = if installed then ship else stable in
  let tau = Option.value ~default:nan (if accepted then ct else st) in
  ( {
      observe_per_s = float_of_int per_cycle /. stream_s;
      acks = !acks;
      compact_s;
      retrain_s;
      cached = inc.Trainer.stats.Trainer.records_cached;
      encoded = inc.Trainer.stats.Trainer.records_encoded;
      save_s;
      load_s;
      tau_s;
      promote_s = t1 -. t;
      accepted;
      decomposition;
    },
    stable,
    tau,
    text )

let round sh counters ~r ~traced =
  let env = sh.env in
  let rdir = Filename.concat env.Env.workdir (Printf.sprintf "round-%d" r) in
  let dir = Filename.concat rdir "obs" in
  let t0 = now () in
  write_history dir sh.hist;
  let store = ok_or "store" (Sorl_serve.Model_store.open_dir (Filename.concat rdir "store")) in
  ok_or "save" (Sorl_serve.Model_store.save store ~name:"base" sh.base);
  match
    Serverproc.start ~exe:env.Env.exe ~workdir:env.Env.workdir
      [ "--store"; Sorl_serve.Model_store.dir store; "--name"; "base"; "--obs-log"; dir; "--obs-roll"; string_of_int roll_at ]
  with
  | Error m ->
    Meter.check false (lazy ("server start: " ^ m));
    None
  | Ok server ->
    let setup = now () -. t0 in
    let address = server.Serverproc.address in
    let oracle = Oracle.create (table sh sh.base) in
    let stop = Atomic.make false in
    let reads = Serve.new_reads () in
    Atomic.set Trace.enabled traced;
    let reader =
      Domain.spawn (fun () ->
          Serve.read_loop ~address ~shapes:sh.shapes ~oracle
            ~pick:(Serve.picker (Env.stream env (1000 + r)) sh.shapes)
            ~until:(fun () -> Atomic.get stop) ~record:traced reads)
    in
    let t_cycles = now () in
    let sent = ref 0 in
    let result =
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Domain.join reader)
        (fun () ->
          let client = ok_or "connect" (Sorl_serve.Client.connect ~timeout_s:60. address) in
          Fun.protect
            ~finally:(fun () -> Sorl_serve.Client.close client)
            (fun () ->
              Sorl_util.Pool.serially (fun () ->
                  let rec go k stable acc taus models =
                    if k = cycles then (List.rev acc, taus, List.rev models)
                    else begin
                      let c, stable, tau, m = cycle sh ~client ~dir ~store ~oracle ~stable ~k ~traced ~sent in
                      go (k + 1) stable (c :: acc) tau (m :: models)
                    end
                  in
                  go 0 sh.base [] nan [])))
    in
    let wall = now () -. t_cycles in
    Atomic.set Trace.enabled false;
    let cycles_done, tau, models = result in
    Serve.reconcile counters address ~sent:(!sent + reads.Serve.sent);
    let rss = Serverproc.peak_rss_mb server.Serverproc.pid in
    Meter.check (Serverproc.stop server) (lazy "server did not shut down cleanly");
    Some { setup; rss; cycles_done; tau; models; wall; reads; traced }

let run (env : Env.t) =
  let hist, cyc = observations env in
  let base = Env.train_model () in
  let sh = { env; base; shapes = Oracle.shapes ~tops:[ 1; 3; 10 ]; tables = Hashtbl.create 8; hist; cyc } in
  ignore (table sh base);
  let counters = Serve.counters () in
  let rounds = ref [] in
  let r = ref 0 in
  let half = env.Env.t_start +. (env.Env.seconds /. 2.) in
  (* a round runs to completion; rounds stop once the time is up, and
     a traced run spends its first half untraced *)
  let any_traced () = List.exists (fun x -> x.traced) !rounds in
  let continue () =
    !r = 0 || now () < Env.deadline env || (env.Env.trace && not (any_traced ()))
  in
  while continue () do
    let traced = env.Env.trace && !r >= 1 && (now () >= half || Env.left env <= 0.) in
    Option.iter (fun x -> rounds := x :: !rounds) (round sh counters ~r:!r ~traced);
    incr r
  done;
  let rounds = List.rev !rounds in
  (match rounds with
  | first :: rest ->
    List.iter
      (fun x ->
        Meter.check (x.models = first.models) (lazy "learn: rounds trained different models");
        Meter.check (x.tau = first.tau) (lazy "learn: rounds reached different held-out tau"))
      rest
  | [] -> ());
  let plain = List.filter (fun x -> not x.traced) rounds in
  let traced = List.filter (fun x -> x.traced) rounds in
  let arr f l = Array.of_list (List.map f l) in
  let cyc_of l = List.concat_map (fun x -> x.cycles_done) l in
  let cmed l f = Meter.median (arr f (cyc_of l)) in
  let e2e =
    [ Meter.of_samples "setup_s" "s" (arr (fun x -> x.setup) plain) ]
    (* per round, then the median round: every round replays the same
       cycles, so its reads see the same mix of quiet and busy moments *)
    @ (let n = List.fold_left (fun a x -> a + x.reads.Serve.lat.Meter.n) 0 plain in
       let lat x = Meter.to_array x.reads.Serve.lat in
       [
         { (Meter.of_samples "req_per_s" "req/s" (arr (fun x -> float_of_int x.reads.Serve.lat.Meter.n /. x.wall) plain)) with Meter.n };
         { (Meter.of_samples "latency_p50_ms" "ms" ~scale:1e3 (arr (fun x -> Meter.median (lat x)) plain)) with Meter.n };
         { (Meter.of_samples "latency_p99_ms" "ms" ~scale:1e3 (arr (fun x -> Meter.quantile (lat x) 0.99) plain)) with Meter.n };
       ])
    @ [
      Meter.of_samples "peak_rss_mb" "MiB" (arr (fun x -> x.rss) plain);
    ]
  in
  let learn_metrics l =
    let per_round f = Meter.median (arr f l) in
    let sum_cycles f x = List.fold_left (fun a c -> a + f c) 0 x.cycles_done in
    let cached = per_round (fun x -> float_of_int (sum_cycles (fun c -> c.cached) x)) in
    let encoded = per_round (fun x -> float_of_int (sum_cycles (fun c -> c.encoded) x)) in
    [
      Meter.of_samples "observe_per_s" "obs/s" (arr (fun c -> c.observe_per_s) (cyc_of l));
      Meter.of_samples "observe.batch_ack_ms" "ms" ~scale:1e3 (Array.of_list (List.concat_map (fun c -> c.acks) (cyc_of l)));
      Meter.of_samples "retrain_s" "s" (arr (fun c -> c.retrain_s) (cyc_of l));
      Meter.of_samples "promote_s" "s" (arr (fun c -> c.promote_s) (cyc_of l));
      Meter.metric "holdout_tau" "tau" (match l with x :: _ -> x.tau | [] -> nan);
      Meter.metric "trainer.candidates_accepted" "count"
        (match l with x :: _ -> float_of_int (List.length (List.filter (fun c -> c.accepted) x.cycles_done)) | [] -> 0.);
      Meter.metric "obs_log.compact_s" "s" (Meter.median (Array.of_list (List.filter_map (fun c -> c.compact_s) (cyc_of l))));
      Meter.metric "enc_cache.records_cached" "count" cached;
      Meter.metric "enc_cache.records_encoded" "count" encoded;
      Meter.metric "enc_cache.reuse_ratio" "ratio" (if cached +. encoded = 0. then 0. else cached /. (cached +. encoded));
      Meter.metric "trainer.holdout_tau_s" "s" (cmed l (fun c -> c.tau_s));
      Meter.metric "model_store.save_s" "s" (cmed l (fun c -> c.save_s));
      Meter.metric "model_store.load_s" "s" (cmed l (fun c -> c.load_s));
    ]
  in
  let layers =
    if not env.Env.trace then []
    else begin
      let ds = List.filter_map (fun c -> c.decomposition) (cyc_of traced) in
      let dmed f = Meter.median (arr f ds) in
      Printf.printf "# retrain decomposition (median over %d traced cycles):\n" (List.length ds);
      List.iter
        (fun (n, f) -> Printf.printf "#   %-22s %10.6f s\n" n (dmed f))
        [ ("replay", (fun d -> d.replay_s)); ("encode", (fun d -> d.encode_s)); ("split+assemble", (fun d -> d.assemble_s));
          ("pairs", (fun d -> d.pairs_s)); ("solve", (fun d -> d.solve_s)); ("stage sum", stage_sum) ];
      Printf.printf "#   %-22s %10.6f s   (Trainer.retrain_incremental, same cycles)\n" "retrain_s"
        (cmed traced (fun c -> c.retrain_s));
      let final =
        match traced with
        | x :: _ -> (
          match List.rev x.models with
          | m :: _ -> ok_or "model" (Sorl.Autotuner.of_string m)
          | [] -> base)
        | [] -> base
      in
      Atomic.set Trace.enabled true;
      let recs = Serve.subsample Serve.replay_cap (List.concat_map (fun x -> x.reads.Serve.records) traced) in
      ignore (Oracle.responses final sh.shapes);
      let tbl = table sh final in
      let rp = Probe.replay ~tuner:final ~shapes:sh.shapes ~tbl ~cache:true recs in
      let encode_s = Probe.encode_times ~tbl recs in
      let k = Probe.kernel_costs final in
      Atomic.set Trace.enabled false;
      let wall l = Meter.median (arr (fun x -> x.wall) l) in
      learn_metrics traced
      @ [
          Meter.metric "obs_log.replay_s" "s" (dmed (fun d -> d.replay_s));
          Meter.metric "obs_log.segments" "count" (dmed (fun d -> float_of_int d.segments));
          Meter.metric "trainer.encode_s" "s" (dmed (fun d -> d.encode_s));
          Meter.metric "dataset.pairs_s" "s" (dmed (fun d -> d.pairs_s));
          Meter.metric "dataset.pair_count" "count" (dmed (fun d -> float_of_int d.pair_count));
          Meter.metric "solver.solve_s" "s" (dmed (fun d -> d.solve_s));
          Meter.metric "retrain.stage_sum_s" "s" (dmed stage_sum);
        ]
      @ Serve.counter_metrics counters
      @ Serve.replay_metrics rp ~encode_s
      @ Serve.kernel_metrics k
      @ [ Meter.metric "trace_overhead" "ratio" (wall traced /. wall plain) ]
    end
  in
  {
    Meter.e2e = (e2e @ if env.Env.trace then [] else learn_metrics plain);
    layers;
    rounds = List.length rounds;
    clients = "2 (closed-loop reads + observe/control)";
    mix =
      ("observations_duplicate_share", measured_duplicate_share (hist @ List.concat cyc))
      :: Serve.mix (List.map (fun x -> x.reads) rounds);
  }
