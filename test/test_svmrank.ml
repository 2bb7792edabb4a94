(* Tests for the rank-SVM library: dataset/pair construction, both
   solvers (including recovering a planted linear utility), the model
   and the evaluation metrics. *)

open Sorl_svmrank
module Sparse = Sorl_util.Sparse

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let feq = Alcotest.float 1e-9

let sample q fs rt =
  { Dataset.query = q; features = Sparse.of_dense fs; runtime = rt; tag = "" }

(* Table I of the paper: 4 instances, 3 executions each. *)
let table1 () =
  Dataset.create ~dim:2
    [
      sample 1 [| 0.1; 0.0 |] 0.012;
      sample 1 [| 0.2; 0.0 |] 0.013;
      sample 1 [| 0.3; 0.0 |] 0.020;
      sample 2 [| 0.1; 0.1 |] 0.010;
      sample 2 [| 0.2; 0.1 |] 0.036;
      sample 2 [| 0.3; 0.1 |] 0.035;
      sample 3 [| 0.1; 0.2 |] 0.030;
      sample 3 [| 0.2; 0.2 |] 0.045;
      sample 3 [| 0.3; 0.2 |] 0.047;
      sample 4 [| 0.1; 0.3 |] 0.025;
      sample 4 [| 0.2; 0.3 |] 0.021;
      sample 4 [| 0.3; 0.3 |] 0.012;
    ]

(* ---- Dataset ---- *)

let test_dataset_grouping () =
  let ds = table1 () in
  checki "samples" 12 (Dataset.num_samples ds);
  checki "queries" 4 (Dataset.num_queries ds);
  checki "query members" 3 (Array.length (Dataset.query_members ds 2));
  Alcotest.check_raises "unknown query" Not_found (fun () ->
      ignore (Dataset.query_members ds 99))

let test_dataset_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Dataset.create: empty") (fun () ->
      ignore (Dataset.create ~dim:2 []));
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Dataset.create: feature dimension mismatch") (fun () ->
      ignore (Dataset.create ~dim:3 [ sample 1 [| 1.; 2. |] 1. ]));
  Alcotest.check_raises "bad runtime"
    (Invalid_argument "Dataset.create: runtime must be finite and positive") (fun () ->
      ignore (Dataset.create ~dim:1 [ sample 1 [| 1. |] 0. ]))

let test_pairs_within_query_only () =
  let ds = table1 () in
  let ps = Dataset.pairs ds in
  (* 4 queries x 3 strict pairs each (paper's transitive-closure count). *)
  checki "m' = 12" 12 (Array.length ps);
  checki "possible pairs" 12 (Dataset.num_possible_pairs ds);
  let samples = Dataset.samples ds in
  Array.iter
    (fun (slower, faster) ->
      checki "same query" samples.(slower).Dataset.query samples.(faster).Dataset.query;
      checkb "ordered" true
        (samples.(slower).Dataset.runtime > samples.(faster).Dataset.runtime))
    ps

let test_pairs_ties_skipped () =
  let ds =
    Dataset.create ~dim:1
      [ sample 1 [| 0.1 |] 1.0; sample 1 [| 0.2 |] 1.0; sample 1 [| 0.3 |] 2.0 ]
  in
  (* tie contributes no pair: only (2,0) and (2,1). *)
  checki "ties skipped" 2 (Array.length (Dataset.pairs ds))

let test_pairs_subsampling () =
  let ds = table1 () in
  let rng = Sorl_util.Rng.create 1 in
  let ps = Dataset.pairs ~max_per_query:1 ~rng ds in
  checki "capped" 4 (Array.length ps);
  Alcotest.check_raises "rng required" (Invalid_argument "Dataset.pairs: subsampling requires ~rng")
    (fun () -> ignore (Dataset.pairs ~max_per_query:1 ds))

let test_subset () =
  let ds = table1 () in
  let s = Dataset.subset ds 6 in
  checki "size" 6 (Dataset.num_samples s);
  checki "queries" 2 (Dataset.num_queries s);
  Alcotest.check_raises "oversize" (Invalid_argument "Dataset.subset: size out of range")
    (fun () -> ignore (Dataset.subset ds 13))

let test_split_queries () =
  let ds = table1 () in
  let rng = Sorl_util.Rng.create 7 in
  let tr, va = Dataset.split_queries ~rng ds ~fraction:0.5 in
  checki "total preserved" 12 (Dataset.num_samples tr + Dataset.num_samples va);
  (* no query appears on both sides *)
  let qs d = Array.to_list (Dataset.query_ids d) in
  List.iter (fun q -> checkb "disjoint" false (List.mem q (qs va))) (qs tr)

(* ---- Solver_common ---- *)

let test_pair_diffs_sparse () =
  let ds = table1 () in
  let ps = Dataset.pairs ds in
  let zs = Solver_common.pair_diffs ds ps in
  Array.iter
    (fun z ->
      (* within-query diffs cancel the constant second coordinate *)
      checki "only coordinate 0 differs" 1 (Sparse.nnz z))
    zs

let test_objective_at_zero () =
  let ds = table1 () in
  let zs = Solver_common.pair_diffs ds (Dataset.pairs ds) in
  let w0 = Array.make 2 0. in
  (* F(0) = C/m * sum(1) = C. *)
  Alcotest.check feq "objective at 0" 100. (Solver_common.objective ~c:100. zs w0);
  Alcotest.check feq "all pairs violated at 0" 1. (Solver_common.hinge_error_rate zs w0)

(* ---- Solvers ---- *)

(* Planted model: utility = 3*x0 - 2*x1 (+ tiny noise-free), runtimes
   follow it exactly.  Both solvers must recover the ranking. *)
let planted_dataset ?(n_queries = 12) ?(per_query = 8) () =
  let rng = Sorl_util.Rng.create 42 in
  let samples = ref [] in
  for q = 0 to n_queries - 1 do
    let base = Sorl_util.Rng.uniform rng in
    for _ = 0 to per_query - 1 do
      let x0 = Sorl_util.Rng.uniform rng and x1 = Sorl_util.Rng.uniform rng in
      (* exp keeps runtimes positive while preserving the utility's
         ordering exactly *)
      let rt = 1e-3 *. exp (base +. (3. *. x0) -. (2. *. x1)) in
      samples := sample q [| x0; x1; base |] rt :: !samples
    done
  done;
  Dataset.create ~dim:3 !samples

let recovers_ranking train_fn =
  let ds = planted_dataset () in
  let model = train_fn ds in
  Eval.mean_tau model ds > 0.95

let test_sgd_recovers_planted () =
  checkb "sgd recovers" true (recovers_ranking (fun ds -> Solver_sgd.train ds))

let test_dcd_recovers_planted () =
  checkb "dcd recovers" true (recovers_ranking (fun ds -> Solver_dcd.train ds))

let test_dcd_reduces_objective () =
  let ds = planted_dataset () in
  let ps = Dataset.pairs ds in
  let zs = Solver_common.pair_diffs ds ps in
  let model = Solver_dcd.train_on_pairs ~dim:3 zs in
  let w = Model.weights model in
  let f0 = Solver_common.objective ~c:100. zs (Array.make 3 0.) in
  let f = Solver_common.objective ~c:100. zs w in
  checkb "objective decreased" true (f < f0)

let test_sgd_reduces_objective () =
  let ds = planted_dataset () in
  let zs = Solver_common.pair_diffs ds (Dataset.pairs ds) in
  let model = Solver_sgd.train_on_pairs ~dim:3 zs in
  let f0 = Solver_common.objective ~c:100. zs (Array.make 3 0.) in
  let f = Solver_common.objective ~c:100. zs (Model.weights model) in
  checkb "objective decreased" true (f < f0)

let test_solvers_agree_on_direction () =
  let ds = planted_dataset () in
  let m1 = Solver_sgd.train ds in
  let m2 = Solver_dcd.train ds in
  (* same sign structure on the informative coordinates *)
  let w1 = Model.weights m1 and w2 = Model.weights m2 in
  checkb "x0 positive (slower)" true (w1.(0) > 0. && w2.(0) > 0.);
  checkb "x1 negative" true (w1.(1) < 0. && w2.(1) < 0.)

let test_solver_determinism () =
  let ds = planted_dataset () in
  let w1 = Model.weights (Solver_sgd.train ds) in
  let w2 = Model.weights (Solver_sgd.train ds) in
  checkb "sgd deterministic" true (w1 = w2);
  let w3 = Model.weights (Solver_dcd.train ds) in
  let w4 = Model.weights (Solver_dcd.train ds) in
  checkb "dcd deterministic" true (w3 = w4)

let test_solver_validation () =
  let ds = planted_dataset () in
  Alcotest.check_raises "sgd bad C" (Invalid_argument "Solver_sgd: C must be positive")
    (fun () ->
      ignore
        (Solver_sgd.train ~params:{ Solver_sgd.default_params with Solver_sgd.c = 0. } ds));
  Alcotest.check_raises "dcd no pairs" (Invalid_argument "Solver_dcd: no pairs") (fun () ->
      ignore (Solver_dcd.train_on_pairs ~dim:2 [||]))

let test_untrainable_dataset_rejected () =
  (* One sample per query -> no pairs. *)
  let ds = Dataset.create ~dim:1 [ sample 1 [| 0.5 |] 1.; sample 2 [| 0.7 |] 2. ] in
  Alcotest.check_raises "sgd" (Invalid_argument "Solver_sgd.train: dataset exposes no pairs")
    (fun () -> ignore (Solver_sgd.train ds))

(* ---- Model ---- *)

let test_model_rank_stable () =
  let model = Model.create [| 1.; 0. |] in
  let c v = Sparse.of_dense v in
  let scores =
    Array.map (Model.score model)
      [| c [| 3.; 0. |]; c [| 1.; 0. |]; c [| 2.; 0. |]; c [| 1.; 5. |] |]
  in
  Alcotest.(check (array int)) "ascending score, ties by index" [| 1; 3; 2; 0 |]
    (Model.sort_by_score scores);
  Alcotest.(check (array int)) "best" [| 1 |] (Model.top_k ~k:1 scores);
  Alcotest.(check (array int)) "empty" [||] (Model.top_k ~k:1 [||])

let test_model_serialization () =
  let model = Model.create [| 0.5; 0.; -1.25 |] in
  let s = Model.to_string model in
  let model' = Model.of_string s in
  checkb "weights roundtrip" true (Model.weights model = Model.weights model');
  let path = Filename.temp_file "sorl" ".model" in
  Model.save model path;
  let loaded = Model.load path in
  Sys.remove path;
  checkb "file roundtrip" true (Model.weights model = Model.weights loaded)

let test_model_of_string_errors () =
  checkb "bad magic" true
    (try
       ignore (Model.of_string "garbage\ndim 2\n");
       false
     with Failure _ -> true);
  checkb "truncated" true
    (try
       ignore (Model.of_string "sorl-rank-model 1\n");
       false
     with Failure _ -> true)

(* ---- Eval ---- *)

let test_eval_perfect_model () =
  let ds = table1 () in
  (* score = x0 replicates the runtime ordering within queries 1 and 3,
     not 2 and 4; a handcrafted perfect model scores by runtime. *)
  let samples = Dataset.samples ds in
  ignore samples;
  let model = Model.create [| 1.; 0. |] in
  let rs = Eval.per_query model ds in
  checki "4 queries" 4 (Array.length rs);
  (* query 1: runtimes increase with x0 -> tau = 1, zero regret *)
  let q1 = rs.(0) in
  Alcotest.check feq "q1 tau" 1. q1.Eval.tau;
  Alcotest.check feq "q1 regret" 0. q1.Eval.top1_regret;
  (* query 4: runtimes decrease with x0 -> tau = -1 *)
  let q4 = rs.(3) in
  Alcotest.check feq "q4 tau" (-1.) q4.Eval.tau;
  checkb "q4 regret positive" true (q4.Eval.top1_regret > 0.)

let test_eval_swapped_rate () =
  let ds = table1 () in
  let model = Model.create [| 1.; 0. |] in
  (* queries 1,3 perfect (6 pairs), query 2 has 1 swapped of 3, query 4
     all 3 swapped -> 4/12. *)
  Alcotest.check feq "swapped rate" (4. /. 12.) (Eval.swapped_pair_rate model ds)

let test_cross_validation () =
  let ds = planted_dataset ~n_queries:10 () in
  let taus = Eval.cross_validate ~folds:5 ~train:(fun d -> Solver_dcd.train d) ds in
  checki "5 folds" 5 (Array.length taus);
  Array.iter (fun t -> checkb "held-out tau high" true (t > 0.8)) taus

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:50 ~name:"planted utility recovered across seeds"
         QCheck2.Gen.(int_range 0 1000)
         (fun seed ->
           let rng = Sorl_util.Rng.create seed in
           let samples = ref [] in
           for q = 0 to 5 do
             for _ = 0 to 9 do
               let x0 = Sorl_util.Rng.uniform rng and x1 = Sorl_util.Rng.uniform rng in
               samples := sample q [| x0; x1 |] (0.1 +. (2. *. x0) +. x1) :: !samples
             done
           done;
           let ds = Dataset.create ~dim:2 !samples in
           let model = Solver_dcd.train ds in
           Eval.mean_tau model ds > 0.8));
  ]

let suite =
  [
    Alcotest.test_case "dataset grouping" `Quick test_dataset_grouping;
    Alcotest.test_case "dataset validation" `Quick test_dataset_validation;
    Alcotest.test_case "pairs within query" `Quick test_pairs_within_query_only;
    Alcotest.test_case "pairs skip ties" `Quick test_pairs_ties_skipped;
    Alcotest.test_case "pairs subsampling" `Quick test_pairs_subsampling;
    Alcotest.test_case "subset" `Quick test_subset;
    Alcotest.test_case "query split" `Quick test_split_queries;
    Alcotest.test_case "pair diffs sparse" `Quick test_pair_diffs_sparse;
    Alcotest.test_case "objective at zero" `Quick test_objective_at_zero;
    Alcotest.test_case "sgd recovers planted" `Quick test_sgd_recovers_planted;
    Alcotest.test_case "dcd recovers planted" `Quick test_dcd_recovers_planted;
    Alcotest.test_case "dcd reduces objective" `Quick test_dcd_reduces_objective;
    Alcotest.test_case "sgd reduces objective" `Quick test_sgd_reduces_objective;
    Alcotest.test_case "solvers agree" `Quick test_solvers_agree_on_direction;
    Alcotest.test_case "solver determinism" `Quick test_solver_determinism;
    Alcotest.test_case "solver validation" `Quick test_solver_validation;
    Alcotest.test_case "untrainable dataset" `Quick test_untrainable_dataset_rejected;
    Alcotest.test_case "model rank" `Quick test_model_rank_stable;
    Alcotest.test_case "model serialization" `Quick test_model_serialization;
    Alcotest.test_case "model parse errors" `Quick test_model_of_string_errors;
    Alcotest.test_case "eval per query" `Quick test_eval_perfect_model;
    Alcotest.test_case "eval swapped rate" `Quick test_eval_swapped_rate;
    Alcotest.test_case "cross validation" `Quick test_cross_validation;
  ]
  @ qcheck_tests
