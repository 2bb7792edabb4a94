(* Integration tests for the core autotuner library: training-set
   generation, the end-to-end tuner, hybrid mode and the experiment
   drivers at reduced scale. *)

open Sorl_stencil
module E = Sorl.Experiments

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let machine = Sorl_machine.Machine_desc.xeon_e5_2680_v3
let measure () = Sorl_machine.Measure.model machine

(* A small instance mix for fast training. *)
let tiny_instances =
  [
    Instance.create_xyz Benchmarks.edge ~sx:256 ~sy:256 ~sz:1;
    Instance.create_xyz Benchmarks.laplacian ~sx:64 ~sy:64 ~sz:64;
    Instance.create_xyz Benchmarks.gradient ~sx:64 ~sy:64 ~sz:64;
    Instance.create_xyz Benchmarks.blur ~sx:512 ~sy:512 ~sz:1;
  ]

let tiny_spec size = { Sorl.Training.size; mode = Features.Extended; seed = 5 }

(* ---- Training ---- *)

let test_tuning_counts_exact () =
  let counts = Sorl.Training.tuning_counts ~size:960 Training_shapes.instances in
  checki "sums to size" 960 (Array.fold_left ( + ) 0 counts);
  Array.iter (fun c -> checkb "floor of 2" true (c >= 2)) counts;
  (* 3-D instances get about twice the samples of 2-D ones *)
  let by_dim want =
    List.filteri
      (fun i _ -> Kernel.dims (Instance.kernel (List.nth Training_shapes.instances i)) = want)
      (Array.to_list counts)
  in
  let mean l = float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l) in
  let r = mean (by_dim 3) /. mean (by_dim 2) in
  checkb "3d ~ 2x 2d samples" true (r > 1.5 && r < 2.5)

let test_tuning_counts_validation () =
  Alcotest.check_raises "too small"
    (Invalid_argument "Training.tuning_counts: size too small (need >= 2 per instance)")
    (fun () -> ignore (Sorl.Training.tuning_counts ~size:100 Training_shapes.instances))

let test_generate_structure () =
  let ms = measure () in
  let ds = Sorl.Training.generate ~spec:(tiny_spec 40) ~instances:tiny_instances ms in
  checki "40 samples" 40 (Sorl_svmrank.Dataset.num_samples ds);
  checki "4 queries" 4 (Sorl_svmrank.Dataset.num_queries ds);
  checki "one measurement per sample" 40 (Sorl_machine.Measure.evaluations ms);
  checki "feature dim" (Features.dim Features.Extended) (Sorl_svmrank.Dataset.dim ds)

let test_generate_deterministic () =
  let gen () =
    let ds = Sorl.Training.generate ~spec:(tiny_spec 30) ~instances:tiny_instances (measure ()) in
    Array.map (fun s -> s.Sorl_svmrank.Dataset.runtime) (Sorl_svmrank.Dataset.samples ds)
  in
  checkb "same seed, same dataset" true (gen () = gen ())

(* ---- Autotuner ---- *)

let trained_tuner =
  lazy
    (let ms = measure () in
     let ds = Sorl.Training.generate ~spec:(tiny_spec 400) ~instances:tiny_instances ms in
     Sorl.Autotuner.train_on ~mode:Features.Extended ds)

let test_autotuner_rank_is_permutation () =
  let tuner = Lazy.force trained_tuner in
  let inst = List.nth tiny_instances 1 in
  let candidates = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
  let n = Array.length candidates in
  let ranked = Sorl.Autotuner.top_k tuner inst ~k:n in
  checki "same size" n (Array.length ranked);
  let sort a = List.sort Tuning.compare (Array.to_list a) in
  checkb "permutation" true (sort candidates = sort ranked);
  (* scores ascend along the ranking *)
  let scores = Array.map (Sorl.Autotuner.score tuner inst) ranked in
  for i = 1 to Array.length scores - 1 do
    checkb "ascending" true (scores.(i) >= scores.(i - 1))
  done

let test_autotuner_better_than_median () =
  (* The tuned configuration should land in the good part of the
     predefined set. *)
  let tuner = Lazy.force trained_tuner in
  let ms = measure () in
  let inst = List.nth tiny_instances 2 in
  let best = Sorl.Autotuner.tune tuner inst in
  let rt_best = Sorl_machine.Measure.runtime ms inst best in
  let set = Tuning.predefined_set ~dims:3 in
  let rts = Array.map (fun t -> Sorl_machine.Measure.runtime ms inst t) set in
  let med = Sorl_util.Stats.median rts in
  let lo, _ = Sorl_util.Stats.min_max rts in
  checkb "beats the median configuration" true (rt_best < med);
  checkb "within 2x of the set optimum" true (rt_best < 2. *. lo)

let test_autotuner_save_load () =
  let tuner = Lazy.force trained_tuner in
  let path = Filename.temp_file "sorl" ".tuner" in
  Sorl.Autotuner.save tuner path;
  let loaded = Sorl.Autotuner.load path in
  Sys.remove path;
  checkb "mode preserved" true
    (Sorl.Autotuner.feature_mode loaded = Sorl.Autotuner.feature_mode tuner);
  let inst = List.nth tiny_instances 1 in
  let t = Tuning.default ~dims:3 in
  Alcotest.check (Alcotest.float 1e-9) "same scores"
    (Sorl.Autotuner.score tuner inst t) (Sorl.Autotuner.score loaded inst t)

let test_autotuner_mode_mismatch () =
  let ms = measure () in
  let ds =
    Sorl.Training.generate
      ~spec:{ (tiny_spec 40) with Sorl.Training.mode = Features.Canonical }
      ~instances:tiny_instances ms
  in
  Alcotest.check_raises "mode mismatch"
    (Invalid_argument "Autotuner.train_on: dataset dimension does not match feature mode")
    (fun () -> ignore (Sorl.Autotuner.train_on ~mode:Features.Extended ds))

(* ---- Tuning_problem ---- *)

let test_tuning_problem_roundtrip () =
  let inst3 = List.nth tiny_instances 1 in
  let t = Tuning.create ~bx:16 ~by:32 ~bz:4 ~u:3 ~c:8 in
  checkb "3d roundtrip" true
    (Tuning.equal t (Sorl.Tuning_problem.decode inst3 (Sorl.Tuning_problem.encode inst3 t)));
  let inst2 = List.nth tiny_instances 0 in
  let p = Sorl.Tuning_problem.problem (measure ()) inst2 in
  checki "2d problem arity" 4 (Sorl_search.Problem.dims p);
  let cost = Sorl_search.Problem.eval p [| 64; 16; 2; 4 |] in
  checkb "evaluates" true (cost > 0.)

(* ---- Hybrid ---- *)

let test_hybrid_rank_then_measure () =
  let tuner = Lazy.force trained_tuner in
  let ms = measure () in
  let inst = List.nth tiny_instances 1 in
  let t0, rt0 = Sorl.Hybrid.rank_then_measure tuner ms inst ~budget:1 in
  let _, rt32 = Sorl.Hybrid.rank_then_measure tuner ms inst ~budget:32 in
  checkb "verified best no worse than model top-1" true (rt32 <= rt0);
  checkb "returns a valid tuning" true (Tuning.is_valid t0);
  Alcotest.check_raises "budget >= 1"
    (Invalid_argument "Hybrid.rank_then_measure: budget must be >= 1") (fun () ->
      ignore (Sorl.Hybrid.rank_then_measure tuner ms inst ~budget:0))

let test_hybrid_seeded_search () =
  let tuner = Lazy.force trained_tuner in
  let ms = measure () in
  let inst = List.nth tiny_instances 2 in
  let t, rt, outcome = Sorl.Hybrid.seeded_search tuner ms inst ~budget:128 () in
  checkb "valid" true (Tuning.is_valid t);
  checki "budget used" 128 outcome.Sorl_search.Runner.evaluations;
  Alcotest.check (Alcotest.float 1e-12) "cost consistent" rt outcome.Sorl_search.Runner.best_cost;
  (* seeding should start no worse than the model's top-1 *)
  let _, rt_top1 = Sorl.Hybrid.rank_then_measure tuner ms inst ~budget:1 in
  checkb "no worse than model top-1" true (rt <= rt_top1 +. 1e-12)

(* ---- Experiments (reduced scale) ---- *)

let small_trained =
  lazy
    (E.train_models ~sizes:[ 60; 200 ] ~instances:tiny_instances (measure ()))

let test_train_models () =
  match Lazy.force small_trained with
  | [ a; b ] ->
    checki "sizes" 60 a.E.size;
    checki "sizes" 200 b.E.size;
    checkb "times recorded" true (a.E.generation_s >= 0. && a.E.training_s >= 0.);
    checki "dataset sizes" 200 (Sorl_svmrank.Dataset.num_samples b.E.dataset)
  | _ -> Alcotest.fail "expected two models"

let test_table2_rows () =
  let rows = E.table2 (Lazy.force small_trained) in
  checki "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      checkb "regression time positive" true (r.E.t2_regression_s > 0.);
      checkb "regression fast (<1s)" true (r.E.t2_regression_s < 1.))
    rows

let test_fig4_structure () =
  let tuners =
    List.map (fun tr -> (tr.E.size, tr.E.tuner)) (Lazy.force small_trained)
  in
  let insts = [ List.nth tiny_instances 1; List.nth tiny_instances 0 ] in
  let rows = E.fig4 ~budget:64 (measure ()) ~tuners insts in
  checki "two rows" 2 (List.length rows);
  List.iter
    (fun row ->
      checki "4 searches" 4 (List.length row.E.search_runtime_s);
      checki "2 regression sizes" 2 (List.length row.E.regression_runtime_s);
      checkb "oracle bound" true
        (List.for_all (fun (_, rt) -> rt >= row.E.oracle_runtime_s) row.E.regression_runtime_s);
      let name, speedups = E.speedup row in
      checkb "name set" true (String.length name > 0);
      checki "speedup arity" 6 (Array.length speedups);
      (* base is the GA itself: its speedup must be exactly 1 *)
      Alcotest.check (Alcotest.float 1e-9) "ga speedup 1" 1. speedups.(0);
      Array.iter (fun s -> checkb "speedups positive" true (s > 0.)) speedups)
    rows

let test_fig5_structure () =
  let tuners =
    List.map (fun tr -> (tr.E.size, tr.E.tuner)) (Lazy.force small_trained)
  in
  let rows = E.fig5 ~budget:32 (measure ()) ~tuners [ List.nth tiny_instances 1 ] in
  match rows with
  | [ row ] ->
    checki "4 curves" 4 (List.length row.E.f5_curves);
    List.iter
      (fun (_, curve) ->
        checki "curve length = budget" 32 (Array.length curve);
        (* best-so-far gflops is non-decreasing *)
        for i = 1 to Array.length curve - 1 do
          checkb "monotone" true (curve.(i) >= curve.(i - 1))
        done)
      row.E.f5_curves;
    checki "time-to-solution entries" 6 (List.length row.E.f5_time_to_solution);
    (* search pays per-variant compile overhead; regression does not *)
    let tts name = List.assoc name row.E.f5_time_to_solution in
    checkb "search time >> regression time" true (tts "ga" > 10. *. tts "regr-60")
  | _ -> Alcotest.fail "expected one row"

let test_tau_helpers () =
  match Lazy.force small_trained with
  | tr :: _ ->
    let taus = E.taus_on_own_training_set tr in
    checki "one tau per instance" 4 (Array.length taus);
    Array.iter (fun t -> checkb "tau range" true (t >= -1. && t <= 1.)) taus;
    let box = E.tau_distribution tr in
    checkb "box ordered" true (box.Sorl_util.Stats.q1 <= box.Sorl_util.Stats.q3)
  | [] -> Alcotest.fail "expected models"

let test_paper_size_lists () =
  checki "table2 sizes" 12 (List.length E.paper_training_sizes);
  Alcotest.(check (list int)) "fig4/5 sizes" [ 960; 3840; 6720; 16000 ] E.fig45_training_sizes

let suite =
  [
    Alcotest.test_case "tuning counts exact" `Quick test_tuning_counts_exact;
    Alcotest.test_case "tuning counts validation" `Quick test_tuning_counts_validation;
    Alcotest.test_case "generate structure" `Quick test_generate_structure;
    Alcotest.test_case "generate deterministic" `Quick test_generate_deterministic;
    Alcotest.test_case "rank is permutation" `Quick test_autotuner_rank_is_permutation;
    Alcotest.test_case "tuned config quality" `Quick test_autotuner_better_than_median;
    Alcotest.test_case "tuner save/load" `Quick test_autotuner_save_load;
    Alcotest.test_case "mode mismatch" `Quick test_autotuner_mode_mismatch;
    Alcotest.test_case "tuning problem" `Quick test_tuning_problem_roundtrip;
    Alcotest.test_case "hybrid rank+measure" `Quick test_hybrid_rank_then_measure;
    Alcotest.test_case "hybrid seeded search" `Quick test_hybrid_seeded_search;
    Alcotest.test_case "train_models" `Quick test_train_models;
    Alcotest.test_case "table2 rows" `Quick test_table2_rows;
    Alcotest.test_case "fig4 structure" `Slow test_fig4_structure;
    Alcotest.test_case "fig5 structure" `Slow test_fig5_structure;
    Alcotest.test_case "tau helpers" `Quick test_tau_helpers;
    Alcotest.test_case "paper size lists" `Quick test_paper_size_lists;
  ]
