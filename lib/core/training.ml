open Sorl_stencil

type spec = { size : int; mode : Features.mode; seed : int }

let default_spec = { size = 3840; mode = Features.Extended; seed = 5 }

let tuning_counts ~size instances =
  let n = List.length instances in
  if n = 0 then invalid_arg "Training.tuning_counts: no instances";
  if size < 2 * n then invalid_arg "Training.tuning_counts: size too small (need >= 2 per instance)";
  let weights =
    Array.of_list (List.map (fun i -> if Kernel.dims (Instance.kernel i) = 2 then 1. else 2.) instances)
  in
  let total_w = Array.fold_left ( +. ) 0. weights in
  (* Ideal real-valued shares with a floor of 2, then largest-remainder
     rounding to hit [size] exactly. *)
  let ideal = Array.map (fun w -> float_of_int size *. w /. total_w) weights in
  let counts = Array.map (fun x -> max 2 (int_of_float (Float.floor x))) ideal in
  let assigned = Array.fold_left ( + ) 0 counts in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      compare
        (ideal.(b) -. Float.of_int counts.(b))
        (ideal.(a) -. Float.of_int counts.(a)))
    order;
  let diff = size - assigned in
  if diff >= 0 then
    for k = 0 to diff - 1 do
      let i = order.(k mod n) in
      counts.(i) <- counts.(i) + 1
    done
  else begin
    (* Floors overshot (tiny sizes): shave from the largest counts while
       respecting the floor of 2. *)
    let excess = ref (-diff) in
    let by_count = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare counts.(b) counts.(a)) by_count;
    let k = ref 0 in
    while !excess > 0 do
      let i = by_count.(!k mod n) in
      if counts.(i) > 2 then begin
        counts.(i) <- counts.(i) - 1;
        decr excess
      end;
      incr k
    done
  end;
  assert (Array.fold_left ( + ) 0 counts = size);
  counts

(* Shared sample-assembly machinery: per instance, a strategy produces
   [count] distinct tuning vectors (receiving the runtime of each draw,
   so guided strategies can adapt); every evaluated point becomes a
   dataset sample.

   Each instance draws from its own generator seeded by
   [Rng.derive_seed spec.seed qi], so its sample block depends only on
   [(spec, instance)] and blocks can be produced concurrently.  Blocks
   are assembled in instance order, making the dataset identical for
   every pool size. *)
let samples_counter = Sorl_util.Telemetry.counter "training.samples"
let instance_hist = Sorl_util.Telemetry.histogram "training.instance_s"

let build ~spec ~instances ~strategy =
  Sorl_util.Telemetry.span "training/generate" (fun () ->
      let counts = tuning_counts ~size:spec.size instances in
      let insts = Array.of_list instances in
      let blocks =
        Sorl_util.Pool.parallel_map
          (fun qi ->
            Sorl_util.Telemetry.span "training/instance" (fun () ->
                Sorl_util.Telemetry.time_hist instance_hist (fun () ->
                    let inst = insts.(qi) in
                    let rng = Sorl_util.Rng.create (Sorl_util.Rng.derive_seed spec.seed qi) in
                    let encode = Features.encode spec.mode inst in
                    let samples = ref [] in
                    let tunings = ref [] in
                    let record t runtime =
                      let sample =
                        {
                          Sorl_svmrank.Dataset.query = qi;
                          features = encode t;
                          runtime;
                          tag = Printf.sprintf "%s@%s" (Instance.name inst) (Tuning.to_string t);
                        }
                      in
                      samples := sample :: !samples;
                      tunings := t :: !tunings
                    in
                    strategy ~rng ~query:qi ~inst ~count:counts.(qi) ~record;
                    Sorl_util.Telemetry.add samples_counter counts.(qi);
                    (List.rev !samples, List.rev !tunings))))
          (Array.init (Array.length insts) Fun.id)
      in
      let blocks = Array.to_list blocks in
      ( Sorl_svmrank.Dataset.create ~dim:(Features.dim spec.mode) (List.concat_map fst blocks),
        Array.of_list (List.concat_map snd blocks) ))

(* Uniform (log-uniform on block/chunk sizes) random sampling (§V-B);
   duplicates are redrawn since they carry no ranking information. *)
let random_strategy measure ~rng ~query:_ ~inst ~count ~record =
  let dims = Kernel.dims (Instance.kernel inst) in
  let seen = Hashtbl.create 16 in
  let drawn = ref 0 in
  while !drawn < count do
    let t = Tuning.random rng ~dims in
    if not (Hashtbl.mem seen t) then begin
      Hashtbl.add seen t ();
      incr drawn;
      record t (Sorl_machine.Measure.runtime measure inst t)
    end
  done

let generate_with_tunings ?(spec = default_spec) ?instances measure =
  let instances =
    match instances with Some l -> l | None -> Training_shapes.instances
  in
  build ~spec ~instances ~strategy:(random_strategy measure)

let generate ?spec ?instances measure = fst (generate_with_tunings ?spec ?instances measure)

(* Guided sampling (§VII): random prefix, then a greedy hill climb from
   the best random draw; each proposal is measured once and recorded
   whether accepted or not. *)
let guided_strategy measure ~guided_fraction ~rng ~query:_ ~inst ~count ~record =
  let dims = Kernel.dims (Instance.kernel inst) in
  let seen = Hashtbl.create 16 in
  let n_random = max 2 (int_of_float (Float.round ((1. -. guided_fraction) *. float_of_int count))) in
  let n_random = min count n_random in
  let best = ref None in
  let measure_distinct t =
    if Hashtbl.mem seen t then None
    else begin
      Hashtbl.add seen t ();
      let rt = Sorl_machine.Measure.runtime measure inst t in
      record t rt;
      (match !best with
      | Some (_, brt) when brt <= rt -> ()
      | _ -> best := Some (t, rt));
      Some rt
    end
  in
  let drawn = ref 0 in
  while !drawn < n_random do
    match measure_distinct (Tuning.random rng ~dims) with
    | Some _ -> incr drawn
    | None -> ()
  done;
  (* hill climb around the incumbent on the integer-vector view *)
  let bounds = Tuning.bounds ~dims in
  let mutate t =
    let a = Tuning.to_array ~dims t in
    let i = Sorl_util.Rng.int rng (Array.length a) in
    let lo, hi = bounds.(i) in
    let v = a.(i) in
    let v' =
      if hi - lo >= 64 then begin
        let f = exp (0.5 *. Sorl_util.Rng.gaussian rng) in
        let w = int_of_float (Float.round (float_of_int v *. f)) in
        if w = v then v + (if Sorl_util.Rng.bool rng then 1 else -1) else w
      end
      else v + (if Sorl_util.Rng.bool rng then 1 else -1)
    in
    a.(i) <- (if v' < lo then lo else if v' > hi then hi else v');
    Tuning.of_array ~dims a
  in
  while !drawn < count do
    let incumbent = match !best with Some (t, _) -> t | None -> Tuning.default ~dims in
    match measure_distinct (mutate incumbent) with
    | Some _ -> incr drawn
    | None -> ()
  done

let generate_guided ?(spec = default_spec) ?instances ?(guided_fraction = 0.5) measure =
  if guided_fraction < 0. || guided_fraction > 1. then
    invalid_arg "Training.generate_guided: guided_fraction outside [0,1]";
  let instances =
    match instances with Some l -> l | None -> Training_shapes.instances
  in
  fst (build ~spec ~instances ~strategy:(guided_strategy measure ~guided_fraction))

let generation_evaluations spec = spec.size

(* Observed measurements — e.g. an online observation log's replay —
   grouped into a query per instance.  Instances are keyed by name in
   first-appearance order, so the dataset depends only on the
   measurement sequence. *)
let of_measurements ~mode measurements =
  if measurements = [] then invalid_arg "Training.of_measurements: no measurements";
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (inst, tuning, cost) ->
      let name = Instance.name inst in
      match Hashtbl.find_opt tbl name with
      | Some (_, block) -> block := (tuning, cost) :: !block
      | None ->
        order := name :: !order;
        Hashtbl.add tbl name (inst, ref [ (tuning, cost) ]))
    measurements;
  let samples =
    List.concat
      (List.mapi
         (fun qi name ->
           let inst, block = Hashtbl.find tbl name in
           let encode = Features.encode mode inst in
           List.rev_map
             (fun (t, cost) ->
               {
                 Sorl_svmrank.Dataset.query = qi;
                 features = encode t;
                 runtime = cost;
                 tag = Printf.sprintf "%s@%s" name (Tuning.to_string t);
               })
             !block)
         (List.rev !order))
  in
  Sorl_svmrank.Dataset.create ~dim:(Features.dim mode) samples
