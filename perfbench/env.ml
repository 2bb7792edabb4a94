(* What every workload gets from the command line. *)
type t = {
  exe : string;  (** the sorl_tune binary built from this checkout *)
  workdir : string;  (** scratch directory of this run, removed at exit *)
  seed : int;  (** workload seed: the only source of the run's inputs *)
  seconds : float;  (** run length *)
  trace : bool;
  t_start : float;
}

let deadline env = env.t_start +. env.seconds
let left env = deadline env -. Trace.now ()
let stream env k = Sorl_util.Rng.create (Sorl_util.Rng.derive_seed env.seed k)

(* The served model is a fixture, not an input: `sorl_tune train' with
   its defaults (paper-size training set, seed 5), in-process.  The
   workload seed drives only the requests and observations, so two
   seeds differ in what is asked, not in what answers. *)
let train_size = Sorl.Training.default_spec.Sorl.Training.size

let train_model () =
  let spec = Sorl.Training.default_spec in
  let measure =
    Sorl_machine.Measure.model ~seed:spec.Sorl.Training.seed Sorl_machine.Machine_desc.xeon_e5_2680_v3
  in
  Sorl.Autotuner.train ~spec measure

let store env =
  match Sorl_serve.Model_store.open_dir (Filename.concat env.workdir "store") with
  | Ok st -> st
  | Error m -> failwith ("model store: " ^ m)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* An empty scratch directory, removed when the benchmark exits. *)
let fresh_dir d =
  rm_rf d;
  mkdir_p d;
  at_exit (fun () -> rm_rf d)
