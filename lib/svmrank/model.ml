type t = { w : float array }

let create w = { w = Array.copy w }
let dim t = Array.length t.w
let weights t = Array.copy t.w

let score t phi =
  if Sorl_util.Sparse.dim phi <> Array.length t.w then
    invalid_arg "Model.score: dimension mismatch";
  Sorl_util.Sparse.dot_dense phi t.w

(* Scores a raw entry list without materializing a sparse vector.  The
   accumulation into the scratch (list order, per index) followed by a
   sum over the sorted touched indices with zeros skipped replays the
   exact float operations of [Sparse.of_list] + [dot_dense], so the
   result is bit-identical to [score t (Sparse.of_list ~dim entries)].
   The closure owns its scratch: create one scorer per domain. *)
let entry_scorer t =
  let w = t.w in
  let scratch = Array.make (Array.length w) 0. in
  fun entries ->
    List.iter (fun (i, x) -> scratch.(i) <- scratch.(i) +. x) entries;
    let touched = List.sort_uniq compare (List.map fst entries) in
    let acc = ref 0. in
    List.iter
      (fun i ->
        let v = scratch.(i) in
        if v <> 0. then acc := !acc +. (v *. w.(i));
        scratch.(i) <- 0.)
      touched;
    !acc

(* Scores the [lo, hi) range of a strictly-increasing (idx, v) scratch
   pair through the one dot kernel ([Sparse.dot_range]): the same float
   additions, in the same increasing-index order, as [dot_dense] on the
   equivalent sparse vector and as [entry_scorer] on the equivalent
   entry list, so all scoring paths are bit-identical.
   Allocation-free. *)
let range_scorer t =
  let w = t.w in
  fun idx v lo hi -> Sorl_util.Sparse.dot_range idx v lo hi w

let sort_by_score (scores : float array) =
  let idx = Array.init (Array.length scores) (fun i -> i) in
  (* The parameter annotation matters: without it this function is
     inferred at ['a array] (the mli constrains only the interface, not
     the compiled code) and every comparison goes through generic array
     loads that box both floats plus a polymorphic compare call.
     Annotated, the loads and comparisons are unboxed primitives.
     Identical order for finite scores (ties, including 0. vs -0.,
     fall through to the index). *)
  Array.sort
    (fun a b ->
      if scores.(a) < scores.(b) then -1
      else if scores.(b) < scores.(a) then 1
      else compare (a : int) (b : int))
    idx;
  idx

(* Indices of the k best (lowest) scores, in the order a full
   [sort_by_score] would list them.  Selection goes through a bounded
   heap over the same (score ascending, index ascending) total order as
   the sort comparator, so for NaN-free scores the result equals
   [Array.sub (sort_by_score scores) 0 k] element for element — the
   parity the qcheck suite pins down.  Near-full selections fall back
   to the sort itself: the heap only wins when k is genuinely small. *)
let top_k ?k (scores : float array) =
  let n = Array.length scores in
  let k =
    match k with
    | None -> n
    | Some k ->
      if k < 0 then invalid_arg "Model.top_k: negative k";
      min k n
  in
  if k = 0 then [||]
  else if 2 * k >= n then Array.sub (sort_by_score scores) 0 k
  else begin
    let h = Sorl_util.Topk.create ~k in
    for i = 0 to n - 1 do
      Sorl_util.Topk.push h scores.(i) i
    done;
    Sorl_util.Topk.contents h
  end

(* Only nonzero weights are written, so a reader cannot infer the
   expected line count from [dim] alone: the [nnz] header and the [end]
   terminator are what turn a file truncated at a line boundary — or
   mid-float, where "-0.0030" degrades to a still-parseable "-0.00" —
   into a hard error instead of a silently different model. *)
let to_string t =
  let b = Buffer.create 256 in
  let nnz = Array.fold_left (fun n v -> if v <> 0. then n + 1 else n) 0 t.w in
  Buffer.add_string b
    (Printf.sprintf "sorl-rank-model 1\ndim %d\nnnz %d\n" (Array.length t.w) nnz);
  Array.iteri (fun i v -> if v <> 0. then Buffer.add_string b (Printf.sprintf "%d %.17g\n" i v)) t.w;
  Buffer.add_string b "end\n";
  Buffer.contents b

let of_string s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "") in
  match lines with
  | magic :: dim_line :: nnz_line :: rest ->
    (match String.split_on_char ' ' (String.trim magic) with
    | [ "sorl-rank-model"; "1" ] -> ()
    | [ "sorl-rank-model"; v ] ->
      failwith
        (Printf.sprintf "Model.of_string: unsupported format version %S (this build reads 1)" v)
    | _ -> failwith "Model.of_string: bad magic (expected \"sorl-rank-model 1\")");
    let dim =
      match String.split_on_char ' ' dim_line with
      | [ "dim"; d ] -> ( try int_of_string d with _ -> failwith "Model.of_string: bad dim")
      | _ -> failwith "Model.of_string: bad dim line"
    in
    if dim <= 0 then failwith "Model.of_string: nonpositive dim";
    (* A linear ranker over the feature encodings never has more than a
       few thousand weights; an absurd dimension means a corrupt or
       hostile file, not a model — refuse before allocating. *)
    if dim > 10_000_000 then failwith "Model.of_string: implausibly large dim";
    let nnz =
      match String.split_on_char ' ' nnz_line with
      | [ "nnz"; n ] -> ( try int_of_string n with _ -> failwith "Model.of_string: bad nnz")
      | _ -> failwith "Model.of_string: bad nnz line"
    in
    let weight_lines, terminator =
      match List.rev rest with
      | "end" :: rev_weights -> (List.rev rev_weights, true)
      | _ -> (rest, false)
    in
    if not terminator then failwith "Model.of_string: truncated (missing end marker)";
    if List.length weight_lines <> nnz then
      failwith
        (Printf.sprintf "Model.of_string: truncated (%d weight lines, header says %d)"
           (List.length weight_lines) nnz);
    let w = Array.make dim 0. in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ i; v ] -> (
          try w.(int_of_string i) <- float_of_string v
          with _ -> failwith "Model.of_string: bad weight line")
        | _ -> failwith "Model.of_string: bad weight line")
      weight_lines;
    { w }
  | _ -> failwith "Model.of_string: truncated"

let save t path =
  Sorl_util.Persist.write_atomic path (fun oc -> output_string oc (to_string t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))
