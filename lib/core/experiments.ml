open Sorl_stencil

type trained = {
  size : int;
  dataset : Sorl_svmrank.Dataset.t;
  tuner : Autotuner.t;
  generation_s : float;
  training_s : float;
}

let paper_training_sizes = [ 960; 1920; 2880; 3840; 4800; 5760; 6720; 7680; 8640; 9600; 16000; 32000 ]
let fig45_training_sizes = [ 960; 3840; 6720; 16000 ]

let train_models ?(mode = Features.Extended) ?(solver = Autotuner.default_solver) ?(seed = 5)
    ?instances ~sizes measure =
  (* Each size is an independent generate-and-fit; fan the sweep out
     over the pool (generation's own inner parallelism degrades to
     serial inside a worker). *)
  Sorl_util.Pool.parallel_map_list
    (fun size ->
      Sorl_util.Telemetry.span "experiments/train_model" (fun () ->
          let spec = { Training.size; mode; seed } in
          let dataset, generation_s =
            Sorl_util.Timer.time (fun () -> Training.generate ~spec ?instances measure)
          in
          let tuner, training_s =
            Sorl_util.Timer.time (fun () -> Autotuner.train_on ~solver ~mode dataset)
          in
          { size; dataset; tuner; generation_s; training_s }))
    sizes

(* ---- Table II ---- *)

type table2_row = {
  t2_size : int;
  t2_generation_s : float;
  t2_training_s : float;
  t2_regression_s : float;
  t2_regression_reps : int;
}

let rank_repeat_hist = Sorl_util.Telemetry.histogram "experiments.rank_repeat_s"

let table2 trained_list =
  let rank_target = Benchmarks.instance_by_name "gradient-256x256x256" in
  let n = Tuning.predefined_size ~dims:3 in
  List.map
    (fun tr ->
      let t2_regression_s, t2_regression_reps =
        Sorl_util.Timer.time_repeat (fun () ->
            ignore (Autotuner.top_k tr.tuner rank_target ~k:n))
      in
      Sorl_util.Telemetry.observe ~count:t2_regression_reps rank_repeat_hist t2_regression_s;
      {
        t2_size = tr.size;
        t2_generation_s = tr.generation_s;
        t2_training_s = tr.training_s;
        t2_regression_s;
        t2_regression_reps;
      })
    trained_list

(* ---- Fig. 4 ---- *)

type fig4_row = {
  benchmark : string;
  base_runtime_s : float;
  search_runtime_s : (string * float) list;
  regression_runtime_s : (int * float) list;
  oracle_runtime_s : float;
}

let run_searches ?(budget = 1024) ~seed measure inst =
  let problem = Tuning_problem.problem measure inst in
  List.map
    (fun algo ->
      let outcome = algo.Sorl_search.Registry.run ~seed ~budget problem in
      (algo.Sorl_search.Registry.name, outcome))
    Sorl_search.Registry.paper_baselines

let predefined_for inst = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst))

let oracle_runtime measure inst =
  Array.fold_left
    (fun acc t -> Float.min acc (Sorl_machine.Measure.runtime measure inst t))
    infinity (predefined_for inst)

let fig4 ?(budget = 1024) ?(seed = 17) measure ~tuners instances =
  Sorl_util.Pool.parallel_map_list
    (fun inst ->
      Sorl_util.Telemetry.span "experiments/fig4_instance" @@ fun () ->
      let searches = run_searches ~budget ~seed measure inst in
      let search_runtime_s =
        List.map (fun (n, o) -> (n, o.Sorl_search.Runner.best_cost)) searches
      in
      let base_runtime_s = List.assoc "ga" search_runtime_s in
      let regression_runtime_s =
        List.map
          (fun (size, tuner) ->
            let best = Autotuner.tune tuner inst in
            (size, Sorl_machine.Measure.runtime measure inst best))
          tuners
      in
      {
        benchmark = Instance.name inst;
        base_runtime_s;
        search_runtime_s;
        regression_runtime_s;
        oracle_runtime_s = oracle_runtime measure inst;
      })
    instances

let speedup row =
  let searches = List.map (fun (_, rt) -> row.base_runtime_s /. rt) row.search_runtime_s in
  let regs = List.map (fun (_, rt) -> row.base_runtime_s /. rt) row.regression_runtime_s in
  (row.benchmark, Array.of_list (searches @ regs))

(* ---- Fig. 5 ---- *)

type fig5_row = {
  f5_benchmark : string;
  f5_curves : (string * float array) list;
  f5_regression_gflops : (int * float) list;
  f5_time_to_solution : (string * float) list;
}

let fig5 ?(budget = 1024) ?(seed = 17) ?(compile_overhead_s = 45.) measure ~tuners instances =
  Sorl_util.Pool.parallel_map_list
    (fun inst ->
      Sorl_util.Telemetry.span "experiments/fig5_instance" @@ fun () ->
      let flops = Instance.total_flops inst in
      let gflops rt = flops /. rt /. 1e9 in
      let problem = Tuning_problem.problem measure inst in
      let curves, tts =
        List.split
          (List.map
             (fun algo ->
               let outcome = algo.Sorl_search.Registry.run ~seed ~budget problem in
               let curve = Array.map gflops outcome.Sorl_search.Runner.curve in
               (* Time-to-solution: every evaluation costs its measured
                  runtime plus one compile.  The runner accounts costs
                  in evaluation order, so this is deterministic even
                  when the search evaluates generations in parallel. *)
               let spent =
                 outcome.Sorl_search.Runner.total_cost
                 +. (float_of_int outcome.Sorl_search.Runner.evaluations *. compile_overhead_s)
               in
               ( (algo.Sorl_search.Registry.name, curve),
                 (algo.Sorl_search.Registry.name, spent) ))
             Sorl_search.Registry.paper_baselines)
      in
      let regs, reg_tts =
        List.split
          (List.map
             (fun (size, tuner) ->
               let n = Tuning.predefined_size ~dims:(Kernel.dims (Instance.kernel inst)) in
               let rank_s, rank_reps =
                 Sorl_util.Timer.time_repeat (fun () ->
                     ignore (Autotuner.top_k tuner inst ~k:n))
               in
               Sorl_util.Telemetry.observe ~count:rank_reps rank_repeat_hist rank_s;
               let best = Autotuner.tune tuner inst in
               let rt = Sorl_machine.Measure.runtime measure inst best in
               ( (size, gflops rt),
                 (Printf.sprintf "regr-%d" size, rank_s +. compile_overhead_s +. rt) ))
             tuners)
      in
      {
        f5_benchmark = Instance.name inst;
        f5_curves = curves;
        f5_regression_gflops = regs;
        f5_time_to_solution = tts @ reg_tts;
      })
    instances

(* ---- Fig. 6 / 7 ---- *)

let test_set_taus ?(samples_per_instance = 64) ?(seed = 23) measure tuner instances =
  (* One derived generator per instance, as in training-set generation:
     each benchmark's test sample is independent of the others, so the
     per-benchmark loop fans out over the pool deterministically. *)
  let insts = Array.of_list instances in
  Sorl_util.Pool.parallel_map_list
    (fun qi ->
      Sorl_util.Telemetry.span "experiments/test_set_taus_instance" @@ fun () ->
      let inst = insts.(qi) in
      let rng = Sorl_util.Rng.create (Sorl_util.Rng.derive_seed seed qi) in
      let dims = Kernel.dims (Instance.kernel inst) in
      let seen = Hashtbl.create samples_per_instance in
      let tunings = ref [] in
      while Hashtbl.length seen < samples_per_instance do
        let t = Tuning.random rng ~dims in
        if not (Hashtbl.mem seen t) then begin
          Hashtbl.add seen t ();
          tunings := t :: !tunings
        end
      done;
      let tunings = Array.of_list !tunings in
      let runtimes = Array.map (Sorl_machine.Measure.runtime measure inst) tunings in
      let scores = Array.map (Autotuner.score tuner inst) tunings in
      (Instance.name inst, Sorl_util.Rank_correlation.kendall_tau runtimes scores))
    (List.init (Array.length insts) Fun.id)

let taus_on_own_training_set tr =
  Sorl_svmrank.Eval.taus (Autotuner.model tr.tuner) tr.dataset

let tau_distribution tr = Sorl_util.Stats.box_plot (taus_on_own_training_set tr)
