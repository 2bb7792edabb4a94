(* Quickstart: train the ordinal-regression autotuner and tune one
   stencil, exactly the standalone flow of the paper's Fig. 3 + §V-C.

     dune exec examples/quickstart.exe

   Everything runs on the deterministic Xeon E5-2680 v3 cost model, so
   this finishes in about a second. *)

open Sorl_stencil

let () =
  (* 1. A measurement backend: the analytic model of the paper's
     testbed with 2% deterministic run-to-run noise. *)
  let machine = Sorl_machine.Machine_desc.xeon_e5_2680_v3 in
  let measure = Sorl_machine.Measure.model machine in
  Format.printf "machine: %a@." Sorl_machine.Machine_desc.pp machine;

  (* 2. Train on the 200 synthetic training instances (line /
     hyperplane / hypercube / laplacian shapes of Fig. 1).  A small
     960-execution training set is already useful (§VI-A). *)
  let spec = { Sorl.Training.size = 960; mode = Features.Extended; seed = 5 } in
  let tuner = Sorl.Autotuner.train ~spec measure in
  Printf.printf "trained on %d stencil executions\n\n" spec.Sorl.Training.size;

  (* 3. Tune an unseen benchmark: rank the 8640-configuration
     pre-defined set without executing anything, take the top. *)
  let inst = Benchmarks.instance_by_name "gradient-256x256x256" in
  let best = Sorl.Autotuner.tune tuner inst in
  Printf.printf "tuning %s\n" (Instance.name inst);
  Printf.printf "  model's choice   : %s\n" (Tuning.to_string best);

  (* 4. How good is it?  Compare against an untuned default, a random
     configuration and the true optimum of the same set. *)
  let gflops t = Sorl_machine.Measure.gflops measure inst t in
  let rng = Sorl_util.Rng.create 1 in
  let random = Tuning.random rng ~dims:3 in
  let set = Tuning.predefined_set ~dims:3 in
  let oracle =
    Array.fold_left
      (fun acc t -> if gflops t > gflops acc then t else acc)
      set.(0) set
  in
  Printf.printf "  default config   : %-30s %6.2f GF/s\n"
    (Tuning.to_string (Tuning.default ~dims:3))
    (gflops (Tuning.default ~dims:3));
  Printf.printf "  random config    : %-30s %6.2f GF/s\n" (Tuning.to_string random)
    (gflops random);
  Printf.printf "  model's choice   : %-30s %6.2f GF/s\n" (Tuning.to_string best)
    (gflops best);
  Printf.printf "  set optimum      : %-30s %6.2f GF/s\n" (Tuning.to_string oracle)
    (gflops oracle);

  (* 5. The ranking itself is the contribution: scoring a candidate is
     three orders of magnitude cheaper than measuring it. *)
  let n = Array.length set in
  let rank_s =
    Sorl_util.Timer.time_unit (fun () -> ignore (Sorl.Autotuner.top_k tuner inst ~k:n))
  in
  Printf.printf "\nranked all %d candidates in %s without a single execution\n" n
    (Sorl_util.Table.fmt_time rank_s)
