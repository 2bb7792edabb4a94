(* offline-tune: the paper's pipeline in-process, no server.  Training
   set generation and fit form the set-up; the timed operations are
   tuning one benchmark, either by the model's top-1 (Autotuner.tune)
   or by one of the paper's four 1024-evaluation searches. *)

open Sorl_stencil

let now = Trace.now
let budget = 1024
let machine = Sorl_machine.Machine_desc.xeon_e5_2680_v3
let mode = Features.Extended

type pipeline = {
  setup : float;
  lat : float array;  (** one per tuning operation, seconds *)
  model_text : string;
  choices : string;  (** the model's top-1 per benchmark *)
  speedup : float;
  search_by_algo : (string * float) list;
  evaluations : int;
  distinct : int;
  cache_hits : int;
  pair_count : int;
}

(* Training: Training.generate then Autotuner.train_on.  The traced
   variant makes the same calls one layer down (pairs, then the solver
   on them), which the oracle checks lands on the identical model. *)
let train (env : Env.t) ~traced measure =
  let spec = { Sorl.Training.size = Env.train_size; mode; seed = env.Env.seed } in
  if not traced then (Sorl.Autotuner.train_on ~mode (Sorl.Training.generate ~spec measure), 0)
  else begin
    let ds = Trace.span "training.generate" (fun () -> Sorl.Training.generate ~spec measure) in
    let params = Sorl_svmrank.Solver_sgd.default_params in
    let zs =
      Trace.span "dataset.pairs" (fun () ->
          (* Solver_sgd.train draws its pairs from this generator *)
          let rng = Sorl_util.Rng.create (params.Sorl_svmrank.Solver_sgd.seed + 7919) in
          let pairs =
            Sorl_svmrank.Dataset.pairs ?max_per_query:params.Sorl_svmrank.Solver_sgd.max_pairs_per_query
              ~rng ds
          in
          Sorl_svmrank.Solver_common.pair_diffs ds pairs)
    in
    let model =
      Trace.span "solver.solve" (fun () ->
          Sorl_svmrank.Solver_sgd.train_on_pairs ~params ~dim:(Sorl_svmrank.Dataset.dim ds) zs)
    in
    (Sorl.Autotuner.of_model ~mode model, Array.length zs)
  end

(* The model's top-1; traced, as compile then pruned top-k (what
   Autotuner.tune does). *)
let tune ~traced tuner inst =
  if not traced then Sorl.Autotuner.tune tuner inst
  else begin
    let enc = Trace.span "features.compile" (fun () -> Features.compile mode inst) in
    let dims = Kernel.dims (Instance.kernel inst) in
    let top, _ =
      Trace.span "autotuner.top_k_pruned" (fun () -> Sorl.Autotuner.top_k_pruned tuner enc ~dims ~k:1)
    in
    top.(0)
  end

let pipeline (env : Env.t) ~traced =
  let t0 = now () in
  let measure = Sorl_machine.Measure.model ~seed:env.Env.seed machine in
  let tuner, pair_count = train env ~traced measure in
  let setup = now () -. t0 in
  Sorl_machine.Measure.reset_evaluations measure;
  (* a second measure with the same noise seed prices the model's
     choices without touching the searches' counters *)
  let judge = Sorl_machine.Measure.model ~seed:env.Env.seed machine in
  let lat = ref [] and ratios = ref [] and choices = Buffer.create 256 in
  let by_algo = Hashtbl.create 4 in
  let evaluations = ref 0 and distinct = ref 0 in
  List.iteri
    (fun bi inst ->
      let t = now () in
      let choice = tune ~traced tuner inst in
      lat := (now () -. t) :: !lat;
      Buffer.add_string choices (Tuning.to_string choice ^ ";");
      let model_cost = Sorl_machine.Measure.runtime judge inst choice in
      List.iteri
        (fun ai (algo : Sorl_search.Registry.algorithm) ->
          let problem = Sorl.Tuning_problem.problem measure inst in
          let seed = Sorl_util.Rng.derive_seed env.Env.seed ((100 * bi) + ai) in
          let t = now () in
          let o =
            Trace.span ("search." ^ algo.Sorl_search.Registry.name) (fun () ->
                algo.Sorl_search.Registry.run ~seed ~budget problem)
          in
          let dt = now () -. t in
          lat := dt :: !lat;
          let name = algo.Sorl_search.Registry.name in
          Hashtbl.replace by_algo name (dt +. Option.value ~default:0. (Hashtbl.find_opt by_algo name));
          evaluations := !evaluations + o.Sorl_search.Runner.evaluations;
          distinct := !distinct + o.Sorl_search.Runner.distinct_points;
          Meter.check (o.Sorl_search.Runner.evaluations = budget)
            (lazy
              (Printf.sprintf "%s on %s spent %d of %d evaluations" name (Instance.name inst)
                 o.Sorl_search.Runner.evaluations budget));
          if name = "ga" then ratios := (o.Sorl_search.Runner.best_cost /. model_cost) :: !ratios)
        Sorl_search.Registry.paper_baselines)
    Benchmarks.instances;
  {
    setup;
    lat = Array.of_list (List.rev !lat);
    model_text = Sorl.Autotuner.to_string tuner;
    choices = Buffer.contents choices;
    speedup = Sorl_util.Stats.geometric_mean (Array.of_list !ratios);
    search_by_algo = Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_algo [];
    evaluations = !evaluations;
    distinct = !distinct;
    cache_hits = Sorl_machine.Measure.cache_hits measure;
    pair_count;
  }

(* Cost of one cost-model evaluation with the memo off, over seeded
   random points of the 17 benchmarks. *)
let eval_probe (env : Env.t) =
  let m = Sorl_machine.Measure.model ~seed:env.Env.seed ~cache_capacity:0 machine in
  let rng = Env.stream env 7 in
  let insts = Array.of_list Benchmarks.instances in
  let pts =
    Array.init 4096 (fun _ ->
        let inst = Sorl_util.Rng.choose rng insts in
        (inst, Tuning.random rng ~dims:(Kernel.dims (Instance.kernel inst))))
  in
  let t = now () in
  let acc = ref 0. in
  Trace.span "measure.runtime" (fun () ->
      Array.iter (fun (i, tn) -> acc := !acc +. Sorl_machine.Measure.runtime m i tn) pts);
  ignore (Sys.opaque_identity !acc);
  (now () -. t) /. float_of_int (Array.length pts)

let run (env : Env.t) =
  let runs = ref [] in
  (* at least one pipeline per phase; a traced run spends half its
     time untraced, for the overhead ratio *)
  let untraced_until = if env.Env.trace then env.Env.t_start +. (env.Env.seconds /. 2.) else Env.deadline env in
  let go ~traced =
    Atomic.set Trace.enabled traced;
    let p = pipeline env ~traced in
    Atomic.set Trace.enabled false;
    runs := (traced, p) :: !runs
  in
  go ~traced:false;
  while now () < untraced_until do go ~traced:false done;
  if env.Env.trace then begin
    go ~traced:true;
    while now () < Env.deadline env do go ~traced:true done
  end;
  let runs = List.rev !runs in
  let first = snd (List.hd runs) in
  List.iter
    (fun (_, p) ->
      Meter.check (String.equal p.model_text first.model_text) (lazy "offline: trained model differs between repetitions");
      Meter.check (String.equal p.choices first.choices) (lazy "offline: model choices differ between repetitions");
      Meter.check (p.speedup = first.speedup) (lazy "offline: tuned speedup differs between repetitions"))
    runs;
  let plain = List.filter_map (fun (t, p) -> if t then None else Some p) runs in
  let traced = List.filter_map (fun (t, p) -> if t then Some p else None) runs in
  let lat_of ps = Array.concat (List.map (fun p -> p.lat) ps) in
  let lat = lat_of plain in
  let per_round f ps = Array.of_list (List.map f ps) in
  let e2e =
    [
      Meter.of_samples "setup_s" "s" (per_round (fun p -> p.setup) plain);
      (* per pipeline, then the median pipeline: every pipeline runs
         the same operations, so a burst of outside load moves one
         pipeline, not the result *)
      { (Meter.of_samples "req_per_s" "req/s" (per_round (fun p -> float_of_int (Array.length p.lat) /. Meter.sum p.lat) plain)) with Meter.n = Array.length lat };
      { (Meter.of_samples "latency_p50_ms" "ms" ~scale:1e3 (per_round (fun p -> Meter.median p.lat) plain)) with Meter.n = Array.length lat };
      { (Meter.of_samples "latency_p99_ms" "ms" ~scale:1e3 (per_round (fun p -> Meter.quantile p.lat 0.99) plain)) with Meter.n = Array.length lat };
      Meter.metric "peak_rss_mb" "MiB" (Serverproc.self_peak_rss_mb ());
    ]
  in
  let report =
    let ps = plain in
    let med f = Meter.median (per_round f ps) in
    let search p = List.fold_left (fun a (_, s) -> a +. s) 0. p.search_by_algo in
    [
      Meter.metric "train_s" "s" (med (fun p -> p.setup));
      Meter.metric "search_s" "s" (med search);
      Meter.metric "tuned_speedup" "x" first.speedup;
    ]
  in
  let layers =
    if not env.Env.trace then []
    else begin
      let sum_span n = Meter.sum (Trace.durations n) /. float_of_int (List.length traced) in
      let tr = List.hd traced in
      Atomic.set Trace.enabled true;
      let eval_s = eval_probe env in
      let tuner =
        match Sorl.Autotuner.of_string first.model_text with Ok t -> t | Error m -> failwith m
      in
      let k = Probe.kernel_costs tuner in
      Atomic.set Trace.enabled false;
      let topk = Trace.durations "autotuner.top_k_pruned" in
      let evals = List.fold_left (fun a p -> a + p.evaluations) 0 traced in
      let distinct = List.fold_left (fun a p -> a + p.distinct) 0 traced in
      let hits = List.fold_left (fun a p -> a + p.cache_hits) 0 traced in
      report
      @ [
          Meter.metric "training.generate_s" "s" (sum_span "training.generate");
          Meter.metric "dataset.pairs_s" "s" (sum_span "dataset.pairs");
          Meter.metric "dataset.pair_count" "count" (float_of_int tr.pair_count);
          Meter.metric "solver.solve_s" "s" (sum_span "solver.solve");
          Meter.metric "measure.eval_us" "us" (1e6 *. eval_s);
          Meter.metric "measure.cache_hit_ratio" "ratio" (float_of_int hits /. float_of_int (max 1 evals));
          Meter.metric "search.ga_s" "s" (sum_span "search.ga");
          Meter.metric "search.sga_s" "s" (sum_span "search.sga");
          Meter.metric "search.de_s" "s" (sum_span "search.de");
          Meter.metric "search.es_s" "s" (sum_span "search.es");
          Meter.metric "runner.duplicate_ratio" "ratio" (1. -. (float_of_int distinct /. float_of_int (max 1 evals)));
          Meter.metric "runner.evaluations" "count" (float_of_int (evals / List.length traced));
          Meter.metric "autotuner.top_k_p50_us" "us" (1e6 *. Meter.quantile topk 0.5);
          Meter.metric "autotuner.top_k_p99_us" "us" (1e6 *. Meter.quantile topk 0.99);
        ]
      @ Serve.kernel_metrics k
      @ [ Meter.metric "trace_overhead" "ratio" (Meter.median (lat_of traced) /. Meter.median lat) ]
    end
  in
  {
    Meter.e2e = (e2e @ if env.Env.trace then [] else report);
    layers;
    rounds = List.length runs;
    clients = "0 (in-process)";
    mix = [];
  }
