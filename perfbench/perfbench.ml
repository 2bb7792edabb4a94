(* The repository benchmark.  One run drives one workload at one seed
   for a fixed time and prints, as its last stdout line, one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics when
   untraced, the per-layer metrics when traced.  Lines before it (all
   starting with '#') give provenance, per-metric sample counts and
   spreads, and the traced run's self times.  See README.md. *)

let workloads = [ "serve-hot"; "serve-cold"; "learn-cycle"; "offline-tune" ]

(* Digest of the program sources, identifying the code measured even
   where the checkout carries no git metadata. *)
let source_digest () =
  let files = ref [] in
  let rec walk d =
    match Sys.readdir d with
    | exception Sys_error _ -> ()
    | names ->
      Array.iter
        (fun n ->
          let p = Filename.concat d n in
          if Sys.is_directory p then walk p
          else if Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli" || n = "dune" then
            files := p :: !files)
        names
  in
  List.iter walk [ "lib"; "bin"; "perfbench" ];
  let files = List.sort compare !files in
  Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file files)))

let provenance ~commit ~(env : Env.t) ~workload ~(o : Meter.outcome) =
  [
    ("workload", workload);
    ("seed", string_of_int env.Env.seed);
    ("run_seconds", Printf.sprintf "%g" env.Env.seconds);
    ("trace", string_of_bool env.Env.trace);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("pool_domains", string_of_int (Sorl_util.Pool.default_domains ()));
    ("load_clients", o.Meter.clients);
    ("rounds_in_run", string_of_int o.Meter.rounds);
    ("ocaml", Sys.ocaml_version);
    ("commit", commit);
    ("source_md5", source_digest ());
  ]
  @ o.Meter.mix

(* A large minor heap keeps the load generator's own collections rare:
   each one stops both of its domains, and would otherwise show up in
   the round trips it measures.  offline-tune runs the library itself
   in this process, so it keeps the runtime's defaults. *)
let quiet_load_generator () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 }

let run_workload env = function
  | "serve-hot" ->
    quiet_load_generator ();
    Serve.run env ~cold:false
  | "serve-cold" ->
    quiet_load_generator ();
    Serve.run env ~cold:true
  | "learn-cycle" ->
    quiet_load_generator ();
    Learn.run env
  | "offline-tune" -> Offline.run env
  | w -> invalid_arg ("unknown workload " ^ w)

let main ~exe ~commit ~workload ~seed ~seconds ~trace =
  let out_dir = ".perfbench_out" in
  let workdir =
    Filename.concat ".perfbench_work" (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ()))
  in
  Env.fresh_dir workdir;
  Env.mkdir_p out_dir;
  let env = { Env.exe; workdir; seed; seconds; trace; t_start = Trace.now () } in
  let o = run_workload env workload in
  let e2e = o.Meter.e2e and layers = o.Meter.layers in
  let metrics = Names.select ~workload ~trace (if trace then layers else e2e) in
  List.iter
    (fun ((m : Meter.metric), _) ->
      if Float.is_nan m.Meter.value then Meter.fail ("metric has no samples: " ^ m.Meter.name))
    metrics;
  let prov = provenance ~commit ~env ~workload ~o in
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) prov;
  List.iter
    (fun (m : Meter.metric) ->
      Printf.printf "# %-28s %14.6g %-6s n=%d spread=%.4f\n" m.Meter.name m.Meter.value
        m.Meter.unit_ m.Meter.n m.Meter.spread)
    (e2e @ layers);
  if trace then begin
    Printf.printf "# self times (s), benchmark-side spans around layer calls:\n";
    List.iter
      (fun (s : Trace.summary) ->
        Printf.printf "#   %-28s count %7d  total %10.6f  self %10.6f\n" s.Trace.sname s.Trace.count
          s.Trace.total_s s.Trace.self_s)
      (Trace.summarize ());
    let path = Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed) in
    Trace.write path;
    Printf.printf "# spans written to %s\n" path
  end;
  let failed = Atomic.get Meter.ops.Meter.failed in
  Printf.printf "# operations attempted %d, failed %d\n" (Atomic.get Meter.ops.Meter.attempted) failed;
  List.iter (fun n -> Printf.printf "# failure: %s\n" n) (List.rev Meter.ops.Meter.notes);
  Printf.printf "# oracle verdict: %s\n" (if failed = 0 then "all replies correct" else "MISMATCHES");
  let line = Meter.result_line ~correct:(failed = 0) metrics in
  (* the run's full record, provenance included, next to its spans *)
  let record = Filename.concat out_dir (Printf.sprintf "%s-seed%d-trace%d.txt" workload seed (Bool.to_int trace)) in
  let oc = open_out record in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s: %s\n" k v) prov;
  List.iter
    (fun (m : Meter.metric) ->
      Printf.fprintf oc "%s %.17g %s n=%d spread=%.6f\n" m.Meter.name m.Meter.value m.Meter.unit_
        m.Meter.n m.Meter.spread)
    (e2e @ layers);
  output_string oc (line ^ "\n");
  close_out oc;
  print_endline line

let () =
  let exe = ref "" and commit = ref "none" and workload = ref "" and seed = ref 11 in
  let seconds = ref 0 and trace = ref 0 and selftest = ref false in
  Arg.parse
    [
      ("--server-exe", Arg.Set_string exe, "PATH sorl_tune binary");
      ("--commit", Arg.Set_string commit, "ID commit being measured");
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed (11 for development, 29 held out for claims)");
      ("--seconds", Arg.Set_int seconds, "S run length (required; BENCHMARK.json's run_seconds)");
      ("--trace", Arg.Set_int trace, "0|1 print end-to-end (0) or per-layer (1) metrics");
      ("--selftest", Arg.Set selftest, " check metric names/units and the oracle, then exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  (* a terminated run still stops and reaps the servers it started *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigterm; Sys.sigint ];
  try
    if !selftest then begin
      let workdir = Filename.concat ".perfbench_work" (Printf.sprintf "selftest-%d" (Unix.getpid ())) in
      Env.fresh_dir workdir;
      exit (Selftest.run ~exe:!exe ~workdir ~workloads)
    end
    else begin
      if not (List.mem !workload workloads) then begin
        prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
        exit 2
      end;
      if !seconds < 1 then begin
        prerr_endline "perfbench: --seconds must be given, at least 1";
        exit 2
      end;
      if !exe = "" || not (Sys.file_exists !exe) then begin
        prerr_endline "perfbench: --server-exe must name the built sorl_tune binary";
        exit 2
      end;
      main ~exe:!exe ~commit:!commit ~workload:!workload ~seed:!seed
        ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
    end
  with e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 3
