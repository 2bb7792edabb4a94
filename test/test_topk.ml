(* Parity suite for the one ranking entry: bounded top-k selection must
   equal the first k elements of the full sort, and both engines of
   [Autotuner.top_k_pruned] — branch-and-bound pruning for 2k < n,
   score-everything-and-sort otherwise — must reproduce the seed
   oracle's rank exactly — for adversarial (random) weight vectors,
   across feature modes, pool sizes and k on both sides of n/2.  Random weights are the hard
   case for bound soundness: unlike trained models they put large
   positive and negative mass on every bin, so any unsound endpoint
   choice in the bounder shows up as a pruned cube that held a true
   top-k candidate. *)

open Sorl_stencil
module Model = Sorl_svmrank.Model
module Topk = Sorl_util.Topk

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---- Model.top_k == prefix of sort_by_score ---- *)

(* Scores drawn from a small value set force duplicate scores, so the
   index tiebreak path is exercised constantly, not occasionally. *)
let gen_scores =
  QCheck2.Gen.(
    array_size (int_range 0 400)
      (oneof [ float_range (-2.) 2.; map (fun i -> float_of_int i /. 4.) (int_range (-8) 8) ]))

let gen_scores_k = QCheck2.Gen.(pair gen_scores (int_range 0 500))

let topk_matches_sort (scores, k) =
  let expected = Array.sub (Model.sort_by_score scores) 0 (min k (Array.length scores)) in
  Model.top_k ~k scores = expected

let topk_default_is_full_sort scores = Model.top_k scores = Model.sort_by_score scores

(* ---- deterministic edge cases ---- *)

let test_topk_edges () =
  checkb "k = 0" true (Model.top_k ~k:0 [| 3.; 1.; 2. |] = [||]);
  checkb "k = 0 on empty" true (Model.top_k ~k:0 [||] = [||]);
  checkb "k > n" true (Model.top_k ~k:10 [| 3.; 1.; 2. |] = [| 1; 2; 0 |]);
  checkb "all ties -> index order" true (Model.top_k ~k:3 (Array.make 8 1.) = [| 0; 1; 2 |]);
  checkb "-0. ties 0." true (Model.top_k ~k:2 [| 0.; -0.; 1. |] = [| 0; 1 |]);
  Alcotest.check_raises "negative k" (Invalid_argument "Model.top_k: negative k") (fun () ->
      ignore (Model.top_k ~k:(-1) [| 1. |]))

let test_topk_selector_reuse () =
  (* One selector, reset between uses at different capacities, gives
     the same answers as fresh ones — the arena reuse contract. *)
  let h = Topk.create ~k:2 in
  let run scores k =
    Topk.reset h ~k;
    Array.iteri (fun i s -> Topk.push h s i) scores;
    Topk.contents h
  in
  let a = [| 5.; 1.; 4.; 1.; 3. |] in
  checkb "first use" true (run a 3 = [| 1; 3; 4 |]);
  checkb "bigger k grows" true (run a 5 = [| 1; 3; 4; 2; 0 |]);
  checkb "smaller k after grow" true (run a 1 = [| 1 |]);
  checki "consumed" 0 (Topk.size h)

(* ---- pruned top-k == exhaustive rank prefix ---- *)

let instances =
  [
    Instance.create_xyz Benchmarks.gradient ~sx:256 ~sy:256 ~sz:256;
    Instance.create_xyz Benchmarks.blur ~sx:1024 ~sy:768 ~sz:1;
    Instance.create_xyz Benchmarks.laplacian ~sx:64 ~sy:512 ~sz:32;
  ]

let random_tuner rng mode =
  let d = Features.dim mode in
  (* Heavy-tailed weights in [-2, 2]: sign changes across every bin
     group, the adversarial case for the bounder. *)
  let w = Array.init d (fun _ -> (Sorl_util.Rng.uniform rng *. 4.) -. 2.) in
  Sorl.Autotuner.of_model ~mode (Model.create w)

(* The seed oracle: one entry list per candidate, the dense-scratch
   entry scorer and the stable score sort over the whole predefined
   set — no compiled encoder, range scorer or pruning involved. *)
let seed_rank tuner inst =
  let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
  let entries = Features.encoder_entries (Sorl.Autotuner.feature_mode tuner) inst in
  let score = Model.entry_scorer (Sorl.Autotuner.model tuner) in
  Array.map (fun i -> set.(i)) (Model.sort_by_score (Array.map (fun t -> score (entries t)) set))

(* k on both sides of the engine switch: 1, 3 and n/2 - 1 take the
   branch-and-bound engine, n/2 and n the full sort. *)
let engine_ks inst =
  let n = Tuning.predefined_size ~dims:(Kernel.dims (Instance.kernel inst)) in
  [ 1; 3; (n / 2) - 1; n / 2; n ]

let pruned_equals_exhaustive ?scratch ?oracle tuner inst ~k =
  let dims = Kernel.dims (Instance.kernel inst) in
  let full = match oracle with Some o -> o | None -> seed_rank tuner inst in
  let enc = Features.compile (Sorl.Autotuner.feature_mode tuner) inst in
  let got, stats = Sorl.Autotuner.top_k_pruned ?scratch tuner enc ~dims ~k in
  let expected = Array.sub full 0 (min k (Array.length full)) in
  if got <> expected then
    Alcotest.failf "top-%d diverges from the seed rank on %s: got %s, want %s" k
      (Instance.name inst)
      (String.concat ";" (Array.to_list (Array.map Tuning.to_string got)))
      (String.concat ";" (Array.to_list (Array.map Tuning.to_string expected)));
  stats

let test_pruned_parity_random_models () =
  let rng = Sorl_util.Rng.create 77 in
  let scratch = Sorl.Autotuner.scratch () in
  (* 6 random extended models x 3 instances x k in {1, 3, 10} plus
     both sides of the engine switch; the shared scratch also proves
     reuse across models and instances. *)
  for _ = 1 to 6 do
    let tuner = random_tuner rng Features.Extended in
    List.iter
      (fun inst ->
        let oracle = seed_rank tuner inst in
        List.iter
          (fun k -> ignore (pruned_equals_exhaustive ~scratch ~oracle tuner inst ~k))
          (10 :: engine_ks inst))
      instances
  done

let test_pruned_parity_canonical () =
  let rng = Sorl_util.Rng.create 78 in
  for _ = 1 to 3 do
    let tuner = random_tuner rng Features.Canonical in
    List.iter
      (fun inst ->
        let oracle = seed_rank tuner inst in
        List.iter
          (fun k -> ignore (pruned_equals_exhaustive ~oracle tuner inst ~k))
          (5 :: engine_ks inst))
      instances
  done

let test_pruned_parity_across_pool_sizes () =
  (* The full engine chunks over the pool; the pruned engine is
     serial.  Equality with the serial seed oracle at pool sizes 1/2/4
     pins both engines everywhere. *)
  let rng = Sorl_util.Rng.create 79 in
  let tuner = random_tuner rng Features.Extended in
  List.iter
    (fun inst ->
      let oracle = seed_rank tuner inst in
      let n = Tuning.predefined_size ~dims:(Kernel.dims (Instance.kernel inst)) in
      List.iter
        (fun d ->
          Sorl_util.Pool.with_domains d (fun () ->
              List.iter
                (fun k -> ignore (pruned_equals_exhaustive ~oracle tuner inst ~k))
                [ 3; n ]))
        [ 1; 2; 4 ])
    instances

let test_pruned_stats_accounting () =
  let rng = Sorl_util.Rng.create 80 in
  let tuner = random_tuner rng Features.Extended in
  let inst = List.hd instances in
  let dims = Kernel.dims (Instance.kernel inst) in
  let enc = Features.compile Features.Extended inst in
  let _, s = Sorl.Autotuner.top_k_pruned tuner enc ~dims ~k:1 in
  let total = Tuning.predefined_size ~dims in
  checki "cubes x cube size = set size" total
    ((s.Sorl.Autotuner.scored + s.Sorl.Autotuner.pruned) * 1);
  checkb "scored + pruned partition the set" true (s.Sorl.Autotuner.scored + s.Sorl.Autotuner.pruned = total);
  checkb "cube accounting" true
    (s.Sorl.Autotuner.cubes_pruned <= s.Sorl.Autotuner.cubes && s.Sorl.Autotuner.scored >= 1);
  let _, f = Sorl.Autotuner.top_k_pruned tuner enc ~dims ~k:(total / 2) in
  checkb "full engine scores everything" true
    (f.Sorl.Autotuner.scored = total && f.Sorl.Autotuner.pruned = 0
    && f.Sorl.Autotuner.cubes_pruned = 0 && f.Sorl.Autotuner.cubes = s.Sorl.Autotuner.cubes)

let test_tune_equals_full_rank_head () =
  let rng = Sorl_util.Rng.create 81 in
  let tuner = random_tuner rng Features.Extended in
  List.iter
    (fun inst ->
      let full = seed_rank tuner inst in
      checkb "tune = rank head" true (Tuning.equal (Sorl.Autotuner.tune tuner inst) full.(0));
      checkb "top_k 1 = rank head" true
        (Sorl.Autotuner.top_k tuner inst ~k:1 = [| full.(0) |]))
    instances

(* ---- score tables == encode_into + range_scorer, bit for bit ---- *)

(* Scores every candidate of the grid spanned by [axes] from the
   tables and through the compiled encoder; fails on the first score
   whose bits differ, or that its cube's bound exceeds. *)
let tables_match_encoder w mode inst (axes : Tuning.axes) =
  let enc = Features.compile mode inst in
  let w = Array.sub w 0 (Features.dim mode) in
  let score = Model.range_scorer (Model.create w) in
  let bd =
    Features.bounder enc ~w ~bx:axes.Tuning.ax_bx ~by:axes.Tuning.ax_by ~bz:axes.Tuning.ax_bz
      ~u:axes.Tuning.ax_u ~c:axes.Tuning.ax_c
  in
  let idx = Array.make (Features.max_nnz enc) 0 and v = Array.make (Features.max_nnz enc) 0. in
  let nu = Array.length axes.Tuning.ax_u and nc = Array.length axes.Tuning.ax_c in
  let out = Array.make (nu * nc) 0. in
  let cube = ref 0 in
  Array.iter
    (fun bx ->
      Array.iter
        (fun by ->
          Array.iter
            (fun bz ->
              Features.score_cube bd !cube out 0;
              let bound = Features.cube_bound bd !cube in
              Array.iteri
                (fun iu u ->
                  Array.iteri
                    (fun ic c ->
                      let tn = { Tuning.bx; by; bz; u; c } in
                      let e = Features.encode_into enc tn idx v in
                      let want = score idx v 0 e and got = out.((iu * nc) + ic) in
                      if Int64.bits_of_float got <> Int64.bits_of_float want then
                        QCheck2.Test.fail_reportf "%s %s %s: table %h, encoder %h" (Instance.name inst)
                          (Features.mode_to_string mode) (Tuning.to_string tn) got want;
                      if not (bound <= want) then
                        QCheck2.Test.fail_reportf "%s %s cube %d: bound %h above score %h"
                          (Instance.name inst) (Features.mode_to_string mode) !cube bound want)
                    axes.Tuning.ax_c)
                axes.Tuning.ax_u;
              incr cube)
            axes.Tuning.ax_bz)
        axes.Tuning.ax_by)
    axes.Tuning.ax_bx;
  true

(* All 17 benchmarks and every tenth training instance. *)
let table_instances =
  Benchmarks.instances @ List.filteri (fun i _ -> i mod 10 = 0) Training_shapes.instances

(* Weights drawn with exact 0. and -0. mixed in: a zero weight on a
   nonzero feature yields a signed-zero product, the case where the
   tables' [-0.] for a skipped entry and a real product must agree. *)
let gen_weights =
  QCheck2.Gen.(
    array_repeat (Features.dim Features.Extended)
      (frequency [ (1, return 0.); (1, return (-0.)); (6, float_range (-2.) 2.) ]))

let qcheck_tables_match_encoder =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:4 ~name:"table scores = encoder scores, bounds below them"
       gen_weights (fun w ->
         List.for_all
           (fun inst ->
             let axes = Tuning.predefined_axes ~dims:(Kernel.dims (Instance.kernel inst)) in
             List.for_all
               (fun mode -> tables_match_encoder w mode inst axes)
               [ Features.Canonical; Features.Extended ])
           table_instances))

let test_tables_follow_axes () =
  (* A compiled encoder keeps the tables of the last grid it ranked; a
     bounder over other axes must rebuild them, not reuse them. *)
  let rng = Sorl_util.Rng.create 82 in
  let w = Array.init (Features.dim Features.Extended) (fun _ -> Sorl_util.Rng.uniform rng -. 0.5) in
  let inst = List.hd instances in
  let other =
    { Tuning.ax_bx = [| 2; 24; 200 |]; ax_by = [| 5 |]; ax_bz = [| 1; 300 |]; ax_u = [| 1; 3 |];
      ax_c = [| 2; 1000 |] }
  in
  checkb "predefined grid" true (tables_match_encoder w Features.Extended inst (Tuning.predefined_axes ~dims:3));
  checkb "other grid" true (tables_match_encoder w Features.Extended inst other)

let test_racing_table_build () =
  (* The tables are built on first use and published atomically; two
     domains ranking through one fresh encoder race that build, and
     must still both return the seed oracle's rank. *)
  let rng = Sorl_util.Rng.create 83 in
  let tuner = random_tuner rng Features.Extended in
  List.iter
    (fun inst ->
      let dims = Kernel.dims (Instance.kernel inst) in
      let oracle = seed_rank tuner inst in
      List.iter
        (fun k ->
          for _ = 1 to 3 do
            let enc = Features.compile Features.Extended inst in
            let rank () = fst (Sorl.Autotuner.top_k_pruned tuner enc ~dims ~k) in
            let other = Domain.spawn rank in
            let mine = rank () in
            checkb "racing builds rank alike" true
              (mine = Domain.join other && mine = Array.sub oracle 0 k)
          done)
        [ 10; Array.length oracle ])
    instances

let test_predefined_axes_consistent () =
  List.iter
    (fun dims ->
      let set = Tuning.predefined_set ~dims in
      checki "size matches set" (Array.length set) (Tuning.predefined_size ~dims);
      let a = Tuning.predefined_axes ~dims in
      let nby = Array.length a.Tuning.ax_by
      and nbz = Array.length a.Tuning.ax_bz
      and nu = Array.length a.Tuning.ax_u
      and nc = Array.length a.Tuning.ax_c in
      (* Flat-index correspondence: the documented row-major formula
         recovers every element — the invariant pruning's tiebreak
         order rests on. *)
      Array.iteri
        (fun i t ->
          let ic = i mod nc in
          let i = i / nc in
          let iu = i mod nu in
          let i = i / nu in
          let ibz = i mod nbz in
          let i = i / nbz in
          let iby = i mod nby in
          let ibx = i / nby in
          checkb "flat index decodes" true
            (Tuning.equal t
               {
                 Tuning.bx = a.Tuning.ax_bx.(ibx);
                 by = a.Tuning.ax_by.(iby);
                 bz = a.Tuning.ax_bz.(ibz);
                 u = a.Tuning.ax_u.(iu);
                 c = a.Tuning.ax_c.(ic);
               }))
        set)
    [ 2; 3 ]

let suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"top_k = sort prefix (dup-heavy scores)" gen_scores_k
         topk_matches_sort);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"top_k default = full sort" gen_scores
         topk_default_is_full_sort);
    Alcotest.test_case "top_k edge cases" `Quick test_topk_edges;
    Alcotest.test_case "selector reset/reuse" `Quick test_topk_selector_reuse;
    Alcotest.test_case "pruned = exhaustive (random extended models)" `Slow
      test_pruned_parity_random_models;
    Alcotest.test_case "pruned = exhaustive (canonical mode)" `Quick test_pruned_parity_canonical;
    Alcotest.test_case "pruned = exhaustive across pool sizes 1/2/4" `Slow
      test_pruned_parity_across_pool_sizes;
    Alcotest.test_case "prune stats partition the set" `Quick test_pruned_stats_accounting;
    Alcotest.test_case "tune/best = full rank head" `Quick test_tune_equals_full_rank_head;
    Alcotest.test_case "predefined axes <-> set correspondence" `Quick
      test_predefined_axes_consistent;
    qcheck_tables_match_encoder;
    Alcotest.test_case "tables follow the axes" `Quick test_tables_follow_axes;
    Alcotest.test_case "racing table builds rank alike" `Quick test_racing_table_build;
  ]
