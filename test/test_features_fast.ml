(* Tests for the zero-allocation ranking fast path: the compiled
   encoder and the one dot kernel must be bit-identical to the seed
   entry-list path they replace, the measurement memo must be invisible
   except for the hit counter, and the timer must discard its warm-up
   call. *)

open Sorl_stencil
module Sparse = Sorl_util.Sparse
module Model = Sorl_svmrank.Model
module Measure = Sorl_machine.Measure

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let machine = Sorl_machine.Machine_desc.xeon_e5_2680_v3
let inst3 = Benchmarks.instance_by_name "laplacian-128x128x128"
let inst2 = Benchmarks.instance_by_name "edge-512x512"
let modes = [ Features.Canonical; Features.Extended ]

let gen_tuning3 =
  QCheck2.Gen.(
    let* bx = int_range 2 1024 in
    let* by = int_range 2 1024 in
    let* bz = int_range 2 1024 in
    let* u = int_range 0 8 in
    let* c = int_range 1 256 in
    return (Tuning.create ~bx ~by ~bz ~u ~c))

(* Deterministic dense weights touching every coordinate, so scoring
   parity failures cannot hide behind zero weights. *)
let dummy_model dim =
  Model.create
    (Array.init dim (fun i ->
         if i mod 3 = 0 then 0.25 +. (float_of_int (i mod 7) /. 11.)
         else -0.4 +. (float_of_int (i mod 5) /. 9.)))

let sparse_of_prefix dim idx v n =
  Sparse.of_list ~dim (List.init n (fun k -> (idx.(k), v.(k))))

(* The seed reference encoding: the entry list summed by [of_list]. *)
let seed_encode mode inst t =
  Sparse.of_list ~dim:(Features.dim mode) (Features.encoder_entries mode inst t)

(* ---- compiled encoder vs the entry-list path ---- *)

let qcheck_encode_into_parity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"encode_into bit-identical to encode" gen_tuning3
       (fun t ->
         List.for_all
           (fun mode ->
             List.for_all
               (fun inst ->
                 let c = Features.compile mode inst in
                 let idx = Array.make (Features.max_nnz c) 0 in
                 let v = Array.make (Features.max_nnz c) 0. in
                 let n = Features.encode_into c t idx v in
                 let increasing = ref true in
                 for k = 1 to n - 1 do
                   if idx.(k - 1) >= idx.(k) then increasing := false
                 done;
                 !increasing
                 && n <= Features.max_nnz c
                 && Sparse.equal ~eps:0.
                      (sparse_of_prefix (Features.compiled_dim c) idx v n)
                      (seed_encode mode inst t)
                 && Sparse.equal ~eps:0. (Features.encode mode inst t) (seed_encode mode inst t))
               [ inst3; inst2 ])
           modes))

(* ---- the one dot kernel vs the sparse-vector scorer ---- *)

(* Rows packed back to back with [encode_at] (odd offsets exercise the
   kernel's 4-wide unroll at every alignment), scored in place by the
   range scorer, must reproduce the seed scorer bit for bit; so must
   the CSR row kernel the solvers use. *)
let qcheck_score_parity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"range_scorer and Csr.dot_row match score"
       QCheck2.Gen.(array_size (return 11) gen_tuning3)
       (fun ts ->
         List.for_all
           (fun mode ->
             let c = Features.compile mode inst3 in
             let m = dummy_model (Features.compiled_dim c) in
             let w = Model.weights m in
             let score = Model.range_scorer m in
             let seed = Model.entry_scorer m in
             let cap = (Array.length ts * Features.max_nnz c) + 1 in
             let idx = Array.make cap 0 and v = Array.make cap 0. in
             let offs = Array.make (Array.length ts + 1) 1 in
             Array.iteri (fun i t -> offs.(i + 1) <- Features.encode_at c t idx v offs.(i)) ts;
             let csr =
               Sparse.Csr.of_rows ~dim:(Features.compiled_dim c)
                 (Array.map (Features.encode mode inst3) ts)
             in
             Array.for_all Fun.id
               (Array.mapi
                  (fun i t ->
                    let reference = seed (Features.encoder_entries mode inst3 t) in
                    score idx v offs.(i) offs.(i + 1) = reference
                    && Sparse.Csr.dot_row csr i w = reference
                    && Model.score m (Features.encode mode inst3 t) = reference)
                  ts))
           modes))

(* ---- ranking fast path vs scoring candidates one by one ---- *)

let trained =
  lazy
    (Sorl.Autotuner.train_on ~mode:Features.Extended
       (Sorl.Training.generate
          ~spec:{ Sorl.Training.size = 96; mode = Features.Extended; seed = 5 }
          ~instances:[ inst3; inst2 ]
          (Measure.model machine)))

let test_rank_matches_seed_path () =
  let tuner = Lazy.force trained in
  let model = Sorl.Autotuner.model tuner in
  let candidates = Tuning.predefined_set ~dims:3 in
  let fast = Sorl.Autotuner.top_k tuner inst3 ~k:(Array.length candidates) in
  (* Seed path: one entry list and score per candidate, then the same
     score sort.  The streamed compiled path must reproduce it bit for
     bit, tie-breaks included. *)
  let entries = Features.encoder_entries Features.Extended inst3 in
  let seed_score = Model.entry_scorer model in
  let scores = Array.map (fun t -> seed_score (entries t)) candidates in
  let order = Model.sort_by_score scores in
  let seed = Array.map (fun i -> candidates.(i)) order in
  checkb "fast ranking identical to per-candidate path" true (fast = seed)

(* ---- measurement memo ---- *)

let tn i = Tuning.create ~bx:(8 * (i + 1)) ~by:8 ~bz:8 ~u:2 ~c:4

let test_cache_hits_and_identity () =
  let cached = Measure.model machine in
  let uncached = Measure.model ~cache_capacity:0 machine in
  checki "default capacity" 8192 (Measure.cache_capacity cached);
  checki "capacity 0 disables" 0 (Measure.cache_capacity uncached);
  List.iter
    (fun i ->
      let a = Measure.runtime cached inst3 (tn i) in
      let b = Measure.runtime cached inst3 (tn i) in
      let c = Measure.runtime uncached inst3 (tn i) in
      checkb "cache returns the measured value" true (a = b && b = c))
    [ 0; 1; 2 ];
  checki "one hit per re-measurement" 3 (Measure.cache_hits cached);
  checki "disabled cache never hits" 0 (Measure.cache_hits uncached);
  checki "hits still count as evaluations" 6 (Measure.evaluations cached);
  Measure.reset_evaluations cached;
  checki "reset clears hits" 0 (Measure.cache_hits cached);
  (* The cached runtimes survive a counter reset. *)
  ignore (Measure.runtime cached inst3 (tn 0));
  checki "entries survive reset" 1 (Measure.cache_hits cached)

let test_cache_lru_eviction () =
  let m = Measure.model ~cache_capacity:2 machine in
  ignore (Measure.runtime m inst3 (tn 0));
  ignore (Measure.runtime m inst3 (tn 1));
  (* cache (MRU first): [1; 0] *)
  ignore (Measure.runtime m inst3 (tn 0));
  checki "hit refreshes recency" 1 (Measure.cache_hits m);
  (* [0; 1] -> measuring 2 evicts 1 *)
  ignore (Measure.runtime m inst3 (tn 2));
  ignore (Measure.runtime m inst3 (tn 1));
  checki "evicted entry misses" 1 (Measure.cache_hits m);
  (* [1; 2] -> 0 was evicted when 1 came back *)
  ignore (Measure.runtime m inst3 (tn 2));
  checki "resident entry still hits" 2 (Measure.cache_hits m)

let test_cache_env_override () =
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SORL_MEASURE_CACHE" "")
    (fun () ->
      Unix.putenv "SORL_MEASURE_CACHE" "5";
      checki "env capacity" 5 (Measure.cache_capacity (Measure.model machine));
      Unix.putenv "SORL_MEASURE_CACHE" "0";
      let m = Measure.model machine in
      checki "env 0 disables" 0 (Measure.cache_capacity m);
      ignore (Measure.runtime m inst3 (tn 0));
      ignore (Measure.runtime m inst3 (tn 0));
      checki "disabled via env: no hits" 0 (Measure.cache_hits m);
      Unix.putenv "SORL_MEASURE_CACHE" "not-a-number";
      checki "unparsable env falls back to default" 8192
        (Measure.cache_capacity (Measure.model machine)));
  checki "empty env restores default" 8192 (Measure.cache_capacity (Measure.model machine))

(* ---- timer warm-up ---- *)

let test_timer_warmup_discarded () =
  let calls = ref 0 in
  let _mean, reps = Sorl_util.Timer.time_repeat ~min_time:0. (fun () -> incr calls) in
  checkb "reps positive" true (reps >= 1);
  checki "one extra untimed warm-up call" (reps + 1) !calls

let suite =
  [
    qcheck_encode_into_parity;
    qcheck_score_parity;
    Alcotest.test_case "rank matches seed path" `Quick test_rank_matches_seed_path;
    Alcotest.test_case "measure cache hits and identity" `Quick test_cache_hits_and_identity;
    Alcotest.test_case "measure cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "measure cache env override" `Quick test_cache_env_override;
    Alcotest.test_case "timer discards warm-up" `Quick test_timer_warmup_discarded;
  ]
