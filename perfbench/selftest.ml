(* Self-test (perfbench --selftest): runs every workload briefly,
   untraced and traced, through the real command line and checks that
   the last line carries exactly the metrics BENCHMARK.json declares,
   each with its declared unit, and that a traced run measured (not
   defaulted) every per-layer metric of its workload; checks that
   failed reads can only worsen the reported latencies; and checks that
   the oracle flags a deliberately wrong expected reply from a live
   server. *)

let find_from = Names.find_from

let count s pat =
  let rec go i acc = match find_from s pat i with Some j -> go (j + 1) (acc + 1) | None -> acc in
  go 0 0

let failures = ref 0

let expect ok what =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let run_cli ~exe ~workload ~trace =
  let args =
    [| Sys.executable_name; "--server-exe"; exe; "--workload"; workload; "--seed"; "11"; "--seconds"; "2";
       "--trace"; string_of_int trace |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let lines = String.split_on_char '\n' (String.trim out) in
  let last = match List.rev lines with l :: _ -> l | [] -> "" in
  (status = Unix.WEXITED 0, lines, last)

let check_output ~workload ~trace (decls : Names.decl list) =
  fun (exited, lines, last) ->
  let metrics = List.map (fun (d : Names.decl) -> (d.Names.name, d.Names.unit_)) decls in
  let tag = Printf.sprintf "%s --trace %d" workload trace in
  expect exited (tag ^ ": exits 0");
  expect (find_from last "\"correct\": true" 0 <> None && find_from last "\"failed\": 0," 0 <> None)
    (tag ^ ": no failed operation");
  let unit_of n =
    Option.bind (find_from last (Printf.sprintf "%S: {\"value\": " n) 0) (fun i ->
        Option.map
          (fun j ->
            let j = j + String.length "\"unit\": \"" in
            String.sub last j (String.index_from last j '"' - j))
          (find_from last "\"unit\": \"" i))
  in
  let missing = List.filter (fun (n, u) -> unit_of n <> Some u) metrics in
  expect (missing = [])
    (tag ^ ": every metric printed with its unit"
    ^ if missing = [] then "" else " (missing " ^ String.concat ", " (List.map fst missing) ^ ")");
  expect (count last "\"unit\":" = List.length metrics) (tag ^ ": no undeclared metric");
  if trace = 1 then begin
    (* every measured metric has a "# <name> <value> <unit> n=..." line;
       a defaulted one has none *)
    let measured n =
      let pre = "# " ^ n ^ " " in
      List.exists
        (fun l -> String.starts_with ~prefix:pre l && find_from l " n=" 0 <> None)
        lines
    in
    let defaulted = List.filter (fun n -> not (measured n)) (Names.layers_of workload) in
    expect (defaulted = [])
      (tag ^ ": every layer metric of the workload measured, none defaulted"
      ^ if defaulted = [] then "" else " (not measured: " ^ String.concat ", " defaulted ^ ")")
  end

(* Failed reads are infinite round trips.  Fed through the same window
   medians as a real run, they must leave the reported latencies no
   better than a clean run's and never non-finite-as-zero. *)
let failures_only_worsen_latency () =
  let reads ~fail_every =
    let r = Serve.new_reads () in
    for i = 0 to 2999 do
      let ok = fail_every = 0 || i mod fail_every <> 0 in
      Meter.add r.Serve.lat (if ok then 1e-3 *. (1. +. (float_of_int (i mod 97) /. 97.)) else infinity);
      Meter.add r.Serve.ends (float_of_int i /. 1000.)
    done;
    [ [ r ] ]
  in
  let value name ms =
    let m = List.find (fun (m : Meter.metric) -> m.Meter.name = name) ms in
    float_of_string (Meter.json_number ~lower_better:true m.Meter.value)
  in
  let clean = Serve.read_metrics (reads ~fail_every:0) in
  List.iter
    (fun fail_every ->
      let faulty = Serve.read_metrics (reads ~fail_every) in
      List.iter
        (fun n ->
          expect
            (value n faulty >= value n clean)
            (Printf.sprintf "%s with 1 in %d reads failed is no better than clean (%g vs %g)" n fail_every
               (value n faulty) (value n clean)))
        [ "latency_p50_ms"; "latency_p99_ms" ])
    [ 100; 50; 2 ]

(* A live server, its real reply to one request, and two expectation
   tables: the true one must accept the reply, one with a deliberately
   wrong expected reply must flag it. *)
let oracle_flags_wrong_reply ~exe ~workdir =
  let tuner = Env.train_model () in
  let st =
    match Sorl_serve.Model_store.open_dir (Filename.concat workdir "store") with
    | Ok st -> st
    | Error m -> failwith m
  in
  (match Sorl_serve.Model_store.save st ~name:"base" tuner with Ok () -> () | Error m -> failwith m);
  let shapes = Oracle.shapes ~tops:[ 3 ] in
  let good = Oracle.table tuner shapes in
  let wrong =
    { good with Oracle.replies = Array.mapi (fun i r -> if i = 1 then good.Oracle.replies.(0) else r) good.Oracle.replies }
  in
  match Serverproc.start ~exe ~workdir [ "--store"; Sorl_serve.Model_store.dir st; "--name"; "base" ] with
  | Error m -> expect false ("oracle: server start: " ^ m)
  | Ok server ->
    let conn = Wire.connect server.Serverproc.address in
    let reply = Wire.call conn shapes.(1).Oracle.line in
    Wire.close conn;
    let accepts tbl = Oracle.accepts (Oracle.create tbl) 1 reply ~sent:0. ~recv:0. in
    expect (accepts good) "oracle accepts the server's reply under the true expectation";
    let before = Atomic.get Meter.ops.Meter.failed in
    Meter.check (accepts wrong) (lazy "deliberately wrong expected reply");
    expect
      (Atomic.get Meter.ops.Meter.failed = before + 1)
      "oracle flags the reply against a deliberately wrong expectation, as one failed operation";
    expect (Serverproc.stop server) "server shuts down cleanly"

let run ~exe ~workdir ~workloads =
  failures_only_worsen_latency ();
  List.iter
    (fun w ->
      check_output ~workload:w ~trace:0 (Names.end_to_end ()) (run_cli ~exe ~workload:w ~trace:0);
      check_output ~workload:w ~trace:1 (Names.per_layer ()) (run_cli ~exe ~workload:w ~trace:1))
    workloads;
  oracle_flags_wrong_reply ~exe ~workdir;
  Printf.printf "selftest: %s\n" (if !failures = 0 then "passed" else Printf.sprintf "%d checks failed" !failures);
  if !failures = 0 then 0 else 1
