open Sorl_stencil

type solver =
  | Sgd of Sorl_svmrank.Solver_sgd.params
  | Dcd of Sorl_svmrank.Solver_dcd.params

(* [w] is the model's dense weight vector, copied once per tuner:
   ranking reads it on every call, and a per-call copy (480 floats) is
   too big for the minor heap. *)
type t = { model : Sorl_svmrank.Model.t; mode : Features.mode; w : float array }

let make ~mode model = { model; mode; w = Sorl_svmrank.Model.weights model }

let default_solver = Sgd Sorl_svmrank.Solver_sgd.default_params

let fit ?init solver ds =
  Sorl_util.Telemetry.span "autotuner/fit" (fun () ->
      match solver with
      | Sgd params -> Sorl_svmrank.Solver_sgd.train ?init ~params ds
      | Dcd params -> Sorl_svmrank.Solver_dcd.train ?init ~params ds)

let train_on ?(solver = default_solver) ?init ~mode ds =
  if Sorl_svmrank.Dataset.dim ds <> Features.dim mode then
    invalid_arg "Autotuner.train_on: dataset dimension does not match feature mode";
  make ~mode (fit ?init solver ds)

let train ?(spec = Training.default_spec) ?(solver = default_solver) measure =
  let ds = Training.generate ~spec measure in
  train_on ~solver ~mode:spec.Training.mode ds

let of_model ~mode model =
  if Sorl_svmrank.Model.dim model <> Features.dim mode then
    invalid_arg "Autotuner.of_model: model dimension does not match feature mode";
  make ~mode model

let model t = t.model
let feature_mode t = t.mode
let weights t = Array.copy t.w

let score t inst =
  let encode = Features.encode t.mode inst in
  fun tuning -> Sorl_svmrank.Model.score t.model (encode tuning)

let embed t inst = Features.embedding t.mode inst

let candidates_counter = Sorl_util.Telemetry.counter "rank.candidates"

(* The weighted score tables of [enc] over the predefined axes; the
   first call per encoder builds the weight-free tables. *)
let bounder t enc a =
  Features.bounder enc ~w:t.w ~bx:a.Tuning.ax_bx ~by:a.Tuning.ax_by ~bz:a.Tuning.ax_bz
    ~u:a.Tuning.ax_u ~c:a.Tuning.ax_c

(* The tuning at a flat index of [Tuning.predefined_set] (row-major
   over bx, by, bz, u, c). *)
let tuning_at a f =
  let nc = Array.length a.Tuning.ax_c and nu = Array.length a.Tuning.ax_u in
  let nbz = Array.length a.Tuning.ax_bz and nby = Array.length a.Tuning.ax_by in
  let ic = f mod nc and f = f / nc in
  let iu = f mod nu and f = f / nu in
  let ibz = f mod nbz and f = f / nbz in
  {
    Tuning.bx = a.Tuning.ax_bx.(f / nby);
    by = a.Tuning.ax_by.(f mod nby);
    bz = a.Tuning.ax_bz.(ibz);
    u = a.Tuning.ax_u.(iu);
    c = a.Tuning.ax_c.(ic);
  }

(* Its flat index (mixed radix over the axis lengths), or [None] off
   the grid. *)
let flat_index a (tn : Tuning.t) =
  List.fold_left
    (fun acc (ax, v) ->
      match (acc, Array.find_index (( = ) v) ax) with
      | Some f, Some i -> Some ((f * Array.length ax) + i)
      | _ -> None)
    (Some 0)
    [
      (a.Tuning.ax_bx, tn.Tuning.bx);
      (a.Tuning.ax_by, tn.Tuning.by);
      (a.Tuning.ax_bz, tn.Tuning.bz);
      (a.Tuning.ax_u, tn.Tuning.u);
      (a.Tuning.ax_c, tn.Tuning.c);
    ]

let cube_size a = Array.length a.Tuning.ax_u * Array.length a.Tuning.ax_c

let cube_count a =
  Array.length a.Tuning.ax_bx * Array.length a.Tuning.ax_by * Array.length a.Tuning.ax_bz

(* The full engine: every cube scored from the tables in parallel
   chunks (the tables are built here, before the fan-out), then a sort
   by (score, index) keeps the first [k].  Scores are bit-identical to
   encode-then-score, so the order is the seed ranking's at every pool
   size. *)
let rank_all t enc a ~k =
  Sorl_util.Telemetry.span "autotuner/rank" (fun () ->
      let bd = bounder t enc a in
      let m = cube_size a in
      let scores = Array.make (cube_count a * m) 0. in
      Sorl_util.Telemetry.add candidates_counter (Array.length scores);
      ignore
        (Sorl_util.Pool.parallel_chunks (cube_count a) (fun lo hi ->
             for cube = lo to hi - 1 do
               Features.score_cube bd cube scores (cube * m)
             done));
      let order = Sorl_svmrank.Model.sort_by_score scores in
      Array.init k (fun r -> tuning_at a order.(r)))

(* ---- branch-and-bound top-k over the predefined grid ---- *)

type scratch = { mutable sc_scores : float array; sc_top : Sorl_util.Topk.t }

let scratch () = { sc_scores = [||]; sc_top = Sorl_util.Topk.create ~k:0 }

type prune_stats = {
  cubes : int;
  cubes_pruned : int;
  scored : int;
  pruned : int;
}

let pruned_cubes_counter = Sorl_util.Telemetry.counter "rank.pruned_subcubes"
let pruned_cands_counter = Sorl_util.Telemetry.counter "rank.pruned_candidates"

(* Top-k over the paper's predefined set without visiting most of it.
   One subcube per (bx, by, bz) block triple, each with a lower bound
   from the score tables ({!Features.cube_bound}); cubes are visited
   in ascending bound order, and once the heap is full and the next
   bound exceeds the current k-th best score every remaining cube is
   pruned at once.  A visited cube is scored whole from the same
   tables as the full engine, and candidates enter the heap under
   their full-set flat index, so the surviving top-k — order,
   tiebreaks and all — is exactly the first k elements of the full
   rank.  A loose bound only means less pruning, never a different
   answer.

   An incumbent set of >= k grid members gives a sound initial pruning
   threshold before the heap has seen anything: if b is the k-th best
   incumbent score, a cube whose lower bound exceeds b strictly cannot
   hold any of the true top k (every candidate in it scores > b, while
   at least k grid candidates score <= b).  The incumbents only arm
   the threshold — they are never pushed into the heap, so the result
   is the same array the incumbent-free scan produces, just with more
   cubes skipped.  Off-grid incumbents are filtered out: the argument
   above needs them to be members of the predefined set. *)
let prune_scan s ?incumbents t enc a ~k =
  Sorl_util.Telemetry.span "autotuner/top_k" (fun () ->
      let ncubes = cube_count a and m = cube_size a in
      if k = 0 then
        ([||], { cubes = ncubes; cubes_pruned = ncubes; scored = 0; pruned = ncubes * m })
      else begin
        if Array.length s.sc_scores < m then s.sc_scores <- Array.make m 0.;
        let buf = s.sc_scores in
        Sorl_util.Topk.reset s.sc_top ~k;
        let bd = bounder t enc a in
        let bounds = Array.init ncubes (Features.cube_bound bd) in
        (* Ascending bound order (ties by cube id, deterministically):
           promising cubes establish a tight k-th best score early, and
           the first prunable cube ends the scan — every cube after it
           has a bound at least as large. *)
        let order = Array.init ncubes Fun.id in
        Array.stable_sort
          (fun x y ->
            if bounds.(x) < bounds.(y) then -1
            else if bounds.(y) < bounds.(x) then 1
            else compare (x : int) y)
          order;
        let inc_bound =
          match incumbents with
          | None -> None
          | Some incs ->
            let ss =
              Array.of_seq
                (Seq.filter_map
                   (fun tn ->
                     Option.map
                       (fun f ->
                         Features.score_cube bd (f / m) buf 0;
                         buf.(f mod m))
                       (flat_index a tn))
                   (Array.to_seq incs))
            in
            if Array.length ss < k then None
            else begin
              Array.sort compare ss;
              Some ss.(k - 1)
            end
        in
        let scored = ref 0 and cubes_pruned = ref 0 in
        let ci = ref 0 in
        let stop = ref false in
        while (not !stop) && !ci < ncubes do
          let cube = order.(!ci) in
          if
            (Sorl_util.Topk.full s.sc_top
            && bounds.(cube) > Sorl_util.Topk.worst_score s.sc_top)
            || (match inc_bound with Some b -> bounds.(cube) > b | None -> false)
          then begin
            (* Strict >: a cube whose bound ties the k-th best score
               could still hold an equal-score candidate with a smaller
               index, which the full sort would prefer. *)
            cubes_pruned := ncubes - !ci;
            stop := true
          end
          else begin
            Features.score_cube bd cube buf 0;
            for j = 0 to m - 1 do
              Sorl_util.Topk.push s.sc_top buf.(j) ((cube * m) + j)
            done;
            scored := !scored + m;
            incr ci
          end
        done;
        let result = Array.map (tuning_at a) (Sorl_util.Topk.contents s.sc_top) in
        Sorl_util.Telemetry.add candidates_counter !scored;
        Sorl_util.Telemetry.add pruned_cubes_counter !cubes_pruned;
        Sorl_util.Telemetry.add pruned_cands_counter (!cubes_pruned * m);
        ( result,
          { cubes = ncubes; cubes_pruned = !cubes_pruned; scored = !scored; pruned = !cubes_pruned * m }
        )
      end)

(* One entry, two engines, picked from [k] alone: branch-and-bound
   pays off while the k-th best score can prune most cubes, but near a
   full rank it scores almost everything and its per-cube bookkeeping
   loses to one parallel score-and-sort — the [2k < n] rule
   [Model.top_k] uses for heap selection versus sorting.  Both return
   exactly the first [k] of the (score, index) order. *)
let top_k_pruned ?scratch:s ?incumbents t enc ~dims ~k =
  if Features.compiled_mode enc <> t.mode then
    invalid_arg "Autotuner.top_k_pruned: encoder mode does not match the tuner";
  if k < 0 then invalid_arg "Autotuner.top_k_pruned: negative k";
  let a = Tuning.predefined_axes ~dims in
  let n = Tuning.predefined_size ~dims in
  let k = min k n in
  if 2 * k < n then
    prune_scan (match s with Some s -> s | None -> scratch ()) ?incumbents t enc a ~k
  else (rank_all t enc a ~k, { cubes = cube_count a; cubes_pruned = 0; scored = n; pruned = 0 })

let top_k ?scratch ?incumbents t inst ~k =
  fst
    (top_k_pruned ?scratch ?incumbents t
       (Features.compile t.mode inst)
       ~dims:(Kernel.dims (Instance.kernel inst))
       ~k)

let tune ?incumbent t inst =
  let incumbents = Option.map (fun tn -> [| tn |]) incumbent in
  match top_k ?incumbents t inst ~k:1 with
  | [| tn |] -> tn
  | _ -> invalid_arg "Autotuner.tune: empty predefined set"

(* ---- persistence ----

   Version-headed text format, written atomically:

     sorl-model v1
     mode <canonical|extended>
     <Model.to_string payload: "sorl-rank-model 1", dim, nnz, weights, end>

   Parsing is defensive end to end: every malformed input — missing or
   wrong version, unknown mode, truncated payload — comes back as a
   typed [Error] with a message naming the problem, never as an
   exception escaping from the middle of a parse.  The serving
   subsystem's hot-reload path consumes the same [Result]s. *)

let format_header = "sorl-model v1"

let to_string t =
  Printf.sprintf "%s\nmode %s\n%s" format_header
    (Features.mode_to_string t.mode)
    (Sorl_svmrank.Model.to_string t.model)

(* First line (sans trailing [\r]) and the remainder after its [\n]. *)
let split_line s =
  match String.index_opt s '\n' with
  | None -> (String.trim s, "")
  | Some i -> (String.trim (String.sub s 0 i), String.sub s (i + 1) (String.length s - i - 1))

let of_string s =
  let err msg = Error ("Autotuner: " ^ msg) in
  let header, rest = split_line s in
  match String.split_on_char ' ' header with
  | [ "sorl-model"; "v1" ] -> (
    let mode_line, payload = split_line rest in
    match String.split_on_char ' ' mode_line with
    | [ "mode"; m ] -> (
      match Features.mode_of_string m with
      | exception Invalid_argument _ -> err (Printf.sprintf "unknown feature mode %S" m)
      | mode -> (
        match Sorl_svmrank.Model.of_string payload with
        | exception Failure msg -> err msg
        | model ->
          if Sorl_svmrank.Model.dim model <> Features.dim mode then
            err
              (Printf.sprintf "model dimension %d does not match %s features (%d)"
                 (Sorl_svmrank.Model.dim model) m (Features.dim mode))
          else Ok (make ~mode model)))
    | _ -> err "missing \"mode <canonical|extended>\" line")
  | [ "sorl-model"; v ] ->
    err (Printf.sprintf "unsupported format version %S (this build reads v1)" v)
  | _ -> err (Printf.sprintf "not a model file (expected %S header)" format_header)

let save t path = Sorl_util.Persist.write_atomic path (fun oc -> output_string oc (to_string t))

let load_result path =
  match Sorl_util.Persist.read_to_string path with
  | Error msg -> Error (Printf.sprintf "Autotuner: cannot read %s: %s" path msg)
  | Ok s -> (
    match of_string s with
    | Ok t -> Ok t
    | Error msg -> Error (Printf.sprintf "%s (in %s)" msg path))

let load path = match load_result path with Ok t -> t | Error msg -> failwith msg
