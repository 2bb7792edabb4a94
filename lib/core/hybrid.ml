let verifications_counter = Sorl_util.Telemetry.counter "hybrid.verifications"

let rank_then_measure tuner measure inst ~budget =
  if budget < 1 then invalid_arg "Hybrid.rank_then_measure: budget must be >= 1";
  Sorl_util.Telemetry.span "hybrid/rank_then_measure" (fun () ->
      let ranked = Autotuner.top_k tuner inst ~k:budget in
      let n = Array.length ranked in
      Sorl_util.Telemetry.add verifications_counter n;
      let best = ref ranked.(0) in
      let best_rt = ref infinity in
      for i = 0 to n - 1 do
        let rt = Sorl_machine.Measure.runtime measure inst ranked.(i) in
        if rt < !best_rt then begin
          best_rt := rt;
          best := ranked.(i)
        end
      done;
      (!best, !best_rt))

let seeded_search tuner measure inst ~budget ?(seed = 0) ?(population = 32) () =
  if budget < population then
    invalid_arg "Hybrid.seeded_search: budget smaller than the population";
  let problem = Tuning_problem.problem measure inst in
  let ranked = Autotuner.top_k tuner inst ~k:population in
  let rng = Sorl_util.Rng.create seed in
  let outcome =
    Sorl_search.Runner.run_with ~budget problem (fun r ->
        let evaluate g = { Sorl_search.Ga_common.genome = g; cost = Sorl_search.Runner.eval r g } in
        (* Seed with the model's top-ranked configurations. *)
        let pop =
          Array.init population (fun i ->
              evaluate (Tuning_problem.encode inst ranked.(min i (Array.length ranked - 1))))
        in
        while true do
          let a = Sorl_search.Ga_common.tournament rng pop ~k:3 in
          let b = Sorl_search.Ga_common.tournament rng pop ~k:3 in
          let child =
            Sorl_search.Ga_common.uniform_crossover rng a.Sorl_search.Ga_common.genome
              b.Sorl_search.Ga_common.genome
          in
          Sorl_search.Ga_common.mutate rng problem ~rate:0.25 child;
          let off = evaluate child in
          let worst = ref 0 in
          Array.iteri
            (fun i ind ->
              if ind.Sorl_search.Ga_common.cost > pop.(!worst).Sorl_search.Ga_common.cost then
                worst := i)
            pop;
          if off.Sorl_search.Ga_common.cost < pop.(!worst).Sorl_search.Ga_common.cost then
            pop.(!worst) <- off
        done)
  in
  ( Tuning_problem.decode inst outcome.Sorl_search.Runner.best_point,
    outcome.Sorl_search.Runner.best_cost,
    outcome )
