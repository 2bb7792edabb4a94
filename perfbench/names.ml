(* The metrics of BENCHMARK.json, read from the file itself, and the
   per-layer metrics each workload must measure.  An untraced run
   prints exactly [end_to_end], a traced run exactly [per_layer]. *)

type decl = { name : string; unit_ : string; lower_better : bool }

let find_from s pat i =
  let n = String.length s and m = String.length pat in
  let rec go i = if i + m > n then None else if String.sub s i m = pat then Some i else go (i + 1) in
  go i

(* The string value of [key] in one flat JSON object. *)
let field obj key =
  let pat = Printf.sprintf "\"%s\":" key in
  match find_from obj pat 0 with
  | None -> failwith (Printf.sprintf "BENCHMARK.json: %s without %S" obj key)
  | Some i ->
    let a = String.index_from obj (i + String.length pat) '"' + 1 in
    String.sub obj a (String.index_from obj a '"' - a)

(* The metric objects of one section (a list of flat objects). *)
let section text key =
  match find_from text (Printf.sprintf "\"%s\":" key) 0 with
  | None -> failwith ("BENCHMARK.json: no " ^ key)
  | Some i ->
    let stop = String.index_from text i ']' in
    let rec objs i acc =
      match String.index_from_opt text i '{' with
      | Some a when a < stop ->
        let b = String.index_from text a '}' in
        let o = String.sub text a (b - a + 1) in
        objs (b + 1) ({ name = field o "name"; unit_ = field o "unit"; lower_better = field o "better" = "lower" } :: acc)
      | _ -> List.rev acc
    in
    objs i []

let declared =
  lazy
    (let text = In_channel.with_open_text "BENCHMARK.json" In_channel.input_all in
     (section text "end_to_end", section text "per_layer"))

let end_to_end () = fst (Lazy.force declared)
let per_layer () = snd (Lazy.force declared)

(* The per-layer metrics each workload must measure (the "on" column
   of the layer table in README.md).  A declared per-layer metric that
   is not on a workload's list is a layer it does not touch, and reads
   0; one that is on the list and was not measured is a defect of the
   benchmark. *)
let served_counters =
  [ "server.requests"; "server.busy"; "result_cache.hit_ratio"; "batcher.coalesced_ratio"; "batcher.arena_hit_ratio" ]

let served_request =
  [
    "protocol.parse_us"; "protocol.encode_us"; "server.transport_us"; "features.encoder_us";
    "autotuner.top_k_p50_us"; "autotuner.top_k_p99_us"; "autotuner.scored_candidates"; "autotuner.scored_ratio";
    "request.rtt_p50_us"; "request.rtt_p99_us"; "request.stage_sum_p50_us"; "request.stage_sum_p99_us";
    "request.transport_p99_us";
  ]

let kernels = [ "features.compile_us"; "features.encode_ns"; "features.bounder_us"; "model.score_ns" ]

let learn =
  [
    "observe_per_s"; "observe.batch_ack_ms"; "obs_log.replay_s"; "obs_log.compact_s"; "obs_log.segments";
    "trainer.encode_s"; "enc_cache.records_cached"; "enc_cache.records_encoded"; "enc_cache.reuse_ratio";
    "trainer.holdout_tau_s"; "retrain_s"; "retrain.stage_sum_s"; "promote_s"; "holdout_tau";
    "model_store.save_s"; "model_store.load_s"; "dataset.pairs_s"; "dataset.pair_count"; "solver.solve_s";
  ]

let offline =
  [
    "training.generate_s"; "dataset.pairs_s"; "dataset.pair_count"; "solver.solve_s"; "train_s";
    "measure.eval_us"; "measure.cache_hit_ratio"; "search.ga_s"; "search.sga_s"; "search.de_s"; "search.es_s";
    "search_s"; "runner.duplicate_ratio"; "runner.evaluations"; "tuned_speedup";
    "autotuner.top_k_p50_us"; "autotuner.top_k_p99_us";
  ]

let layers_of = function
  | "serve-hot" | "serve-cold" -> served_counters @ served_request @ kernels @ [ "trace_overhead" ]
  | "learn-cycle" -> learn @ served_counters @ served_request @ kernels @ [ "trace_overhead" ]
  | "offline-tune" -> offline @ kernels @ [ "trace_overhead" ]
  | w -> invalid_arg ("unknown workload " ^ w)

(* The declared metrics, in declared order, taken from what a run
   measured, each paired with whether lower is better. *)
let select ~workload ~trace (measured : Meter.metric list) =
  let find n = List.find_opt (fun (m : Meter.metric) -> m.Meter.name = n) measured in
  let decls = if trace then per_layer () else end_to_end () in
  let required = if trace then layers_of workload else List.map (fun d -> d.name) decls in
  List.iter
    (fun n ->
      if not (List.exists (fun d -> d.name = n) decls) then failwith ("metric not declared: " ^ n);
      if find n = None then failwith ("metric not measured: " ^ n))
    required;
  List.map
    (fun d ->
      let m =
        match find d.name with
        | Some m ->
          if m.Meter.unit_ <> d.unit_ then
            failwith (Printf.sprintf "metric %s measured in %s, declared %s" d.name m.Meter.unit_ d.unit_);
          m
        | None -> Meter.metric d.name d.unit_ 0.
      in
      (m, d.lower_better))
    decls
