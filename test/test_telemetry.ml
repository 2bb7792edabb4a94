(* Tests for Sorl_util.Telemetry: disabled-mode no-ops, span nesting,
   counter exactness under the pool, exporter JSON well-formedness and
   deterministic traces for seeded pipelines. *)

module T = Sorl_util.Telemetry
module Pool = Sorl_util.Pool

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Every test leaves telemetry disabled and empty so suites composed
   after this one see the seed behaviour. *)
let with_fresh_telemetry enabled f =
  T.set_enabled enabled;
  T.reset ();
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    f

(* ---- a minimal JSON parser, enough to validate the exporters ---- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some ('"' as c) | Some ('\\' as c) | Some ('/' as c) ->
          Buffer.add_char b c;
          advance ();
          go ()
        | Some 'n' ->
          Buffer.add_char b '\n';
          advance ();
          go ()
        | Some 'r' ->
          Buffer.add_char b '\r';
          advance ();
          go ()
        | Some 't' ->
          Buffer.add_char b '\t';
          advance ();
          go ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            advance ()
          done;
          Buffer.add_char b '?';
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected , or } in object"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ] in array"
        in
        Arr (elements [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some v -> v
    | None -> raise (Bad_json ("missing key " ^ key)))
  | _ -> raise (Bad_json ("not an object while looking up " ^ key))

(* ---- disabled mode ---- *)

let test_disabled_noop () =
  with_fresh_telemetry false @@ fun () ->
  let c = T.counter "test.disabled_counter" in
  let h = T.histogram "test.disabled_hist" in
  let r =
    T.span "test/disabled" (fun () ->
        T.incr c;
        T.add c 41;
        T.observe h 1.5;
        T.time_hist h (fun () -> 7))
  in
  checki "span passes value through" 7 r;
  checkb "enabled is off" false (T.enabled ());
  checki "no spans recorded" 0 (List.length (T.spans ()));
  checki "counter untouched" 0 (T.counter_value "test.disabled_counter");
  checkb "no histogram samples" true
    (List.for_all (fun h -> h.T.hs_name <> "test.disabled_hist") (T.histograms ()))

(* ---- span nesting and ordering ---- *)

let test_span_nesting () =
  with_fresh_telemetry true @@ fun () ->
  T.span "outer" (fun () ->
      T.span "first" (fun () -> ignore (Sys.opaque_identity 1));
      T.span "second" (fun () -> T.span "inner" (fun () -> ignore (Sys.opaque_identity 2))));
  let paths = List.map (fun s -> String.concat "/" s.T.sp_path) (T.spans ()) in
  (* Spans are listed in start order: outer starts before its children
     even though it completes last. *)
  Alcotest.(check (list string))
    "paths in start order"
    [ "outer"; "outer/first"; "outer/second"; "outer/second/inner" ]
    paths;
  List.iter
    (fun s ->
      checkb "start nonnegative" true (s.T.sp_start_s >= 0.);
      checkb "duration nonnegative" true (s.T.sp_dur_s >= 0.))
    (T.spans ());
  let agg = T.aggregated () in
  checki "four aggregated paths" 4 (List.length agg);
  match agg with
  | (root, count, _) :: _ ->
    Alcotest.(check (list string)) "root path first" [ "outer" ] root;
    checki "root count" 1 count
  | [] -> Alcotest.fail "aggregated is empty"

let test_span_exception_safety () =
  with_fresh_telemetry true @@ fun () ->
  (try T.span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  T.span "after" (fun () -> ());
  let paths = List.map (fun s -> String.concat "/" s.T.sp_path) (T.spans ()) in
  (* The raising span is still recorded and the stack is unwound, so
     the next span is NOT nested under it. *)
  Alcotest.(check (list string)) "stack unwound on raise" [ "boom"; "after" ] paths

(* ---- counters under the pool ---- *)

let test_counter_atomicity () =
  with_fresh_telemetry true @@ fun () ->
  let c = T.counter "test.parallel_counter" in
  let n = 10_000 in
  List.iter
    (fun domains ->
      T.reset ();
      Pool.with_domains domains (fun () ->
          Pool.parallel_for n (fun i -> T.span "work" (fun () -> T.add c (1 + (i mod 2)))));
      checki
        (Printf.sprintf "exact total at %d domains" domains)
        (n + (n / 2))
        (T.counter_value "test.parallel_counter");
      (* every per-iteration span survives the worker domains' exit *)
      checki (Printf.sprintf "all spans kept at %d domains" domains) n (List.length (T.spans ())))
    [ 1; 2; 4 ]

(* ---- exporters ---- *)

let test_chrome_json_round_trip () =
  with_fresh_telemetry true @@ fun () ->
  let c = T.counter "test.export_counter" in
  let h = T.histogram "test.export_hist" in
  T.span "alpha" (fun () ->
      T.add c 3;
      T.observe h 0.25;
      T.observe ~count:4 h 0.75;
      T.span "beta \"quoted\"" (fun () -> ()));
  let j = parse_json (T.chrome_json ()) in
  let events = match member "traceEvents" j with Arr l -> l | _ -> [] in
  checki "two trace events" 2 (List.length events);
  List.iter
    (fun ev ->
      (match member "ph" ev with
      | Str "X" -> ()
      | _ -> Alcotest.fail "ph must be \"X\"");
      (match member "ts" ev with
      | Num ts -> checkb "ts nonnegative" true (ts >= 0.)
      | _ -> Alcotest.fail "ts must be a number");
      match (member "dur" ev, member "name" ev) with
      | Num _, Str _ -> ()
      | _ -> Alcotest.fail "dur/name malformed")
    events;
  (match member "name" (List.nth events 1) with
  | Str name -> Alcotest.(check string) "escaping survives" "beta \"quoted\"" name
  | _ -> Alcotest.fail "second event has no name");
  let metrics = member "metrics" j in
  (match member "test.export_counter" (member "counters" metrics) with
  | Num v -> checki "counter exported" 3 (int_of_float v)
  | _ -> Alcotest.fail "counter missing from metrics");
  (match member "test.export_hist" (member "histograms" metrics) with
  | Obj _ as hist -> (
    match (member "count" hist, member "mean" hist) with
    | Num count, Num mean ->
      checki "weighted count" 5 (int_of_float count);
      checkb "weighted mean" true (Float.abs (mean -. 0.65) < 1e-9)
    | _ -> Alcotest.fail "histogram stats malformed")
  | _ -> Alcotest.fail "histogram missing from metrics");
  (* the metrics-only report is valid JSON with the same counters *)
  match member "test.export_counter" (member "counters" (parse_json (T.report_json ()))) with
  | Num v -> checki "report_json counter" 3 (int_of_float v)
  | _ -> Alcotest.fail "report_json counter missing"

(* ---- determinism on a seeded pipeline ---- *)

let traced_pipeline () =
  T.reset ();
  let machine = Sorl_machine.Machine_desc.xeon_e5_2680_v3 in
  let measure = Sorl_machine.Measure.model machine in
  let spec = { Sorl.Training.size = 480; mode = Sorl_stencil.Features.Canonical; seed = 11 } in
  let tuner = Sorl.Autotuner.train ~spec measure in
  let inst = Sorl_stencil.Benchmarks.instance_by_name "gradient-256x256x256" in
  ignore (Sorl.Autotuner.top_k tuner inst ~k:(Sorl_stencil.Tuning.predefined_size ~dims:3));
  (T.aggregated (), T.counters ())

let test_deterministic_trace () =
  with_fresh_telemetry true @@ fun () ->
  let agg1, counters1 = traced_pipeline () in
  let agg2, counters2 = traced_pipeline () in
  checkb "span paths and counts repeat" true
    (List.map (fun (p, n, _) -> (p, n)) agg1 = List.map (fun (p, n, _) -> (p, n)) agg2);
  checkb "counters repeat" true (counters1 = counters2);
  let has path = List.exists (fun (p, _, _) -> p = path) agg1 in
  checkb "generation span present" true (has [ "training/generate" ]);
  checkb "solver span present" true
    (has [ "autotuner/fit"; "solver/sgd" ] || has [ "autotuner/fit"; "solver/dcd" ]);
  checkb "rank span present" true (has [ "autotuner/rank" ]);
  checkb "candidate counter" true (List.mem_assoc "rank.candidates" counters1)

(* ---- Timer.time_repeat integration ---- *)

let test_time_repeat_into_histogram () =
  with_fresh_telemetry true @@ fun () ->
  let h = T.histogram "test.repeat_hist" in
  let mean, reps =
    Sorl_util.Timer.time_repeat ~min_time:0.001 (fun () ->
        ignore (Sys.opaque_identity (1 + 1)))
  in
  checkb "reps at least one" true (reps >= 1);
  T.observe ~count:reps h mean;
  match List.find_opt (fun s -> s.T.hs_name = "test.repeat_hist") (T.histograms ()) with
  | Some stats ->
    checki "histogram count is the repetition count" reps stats.T.hs_count;
    checkb "mean preserved" true (Float.abs (stats.T.hs_mean -. mean) < 1e-12)
  | None -> Alcotest.fail "histogram not reported"

let suite =
  [
    Alcotest.test_case "disabled mode is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "span nesting and order" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "counter exact under pool" `Quick test_counter_atomicity;
    Alcotest.test_case "chrome json round-trip" `Quick test_chrome_json_round_trip;
    Alcotest.test_case "deterministic seeded trace" `Quick test_deterministic_trace;
    Alcotest.test_case "time_repeat into histogram" `Quick test_time_repeat_into_histogram;
  ]
