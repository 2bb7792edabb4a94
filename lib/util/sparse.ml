type t = { dim : int; idx : int array; v : float array }

(* Sort-and-merge build: a stable sort keeps duplicate indices in list
   order, so summing each run left-to-right performs the same float
   additions (in the same order) as the accumulating hash table this
   replaces — no hashing, and a deterministic entry order throughout. *)
let of_list ~dim pairs =
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= dim then invalid_arg "Sparse.of_list: index out of range")
    pairs;
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare (a : int) b) pairs in
  let rec merge acc = function
    | [] -> List.rev acc
    | (i, x) :: rest ->
      let rec take x = function
        | (j, y) :: tl when j = i -> take (x +. y) tl
        | tl -> (x, tl)
      in
      let x, tl = take (0. +. x) rest in
      if x = 0. then merge acc tl else merge ((i, x) :: acc) tl
  in
  let entries = merge [] sorted in
  { dim; idx = Array.of_list (List.map fst entries); v = Array.of_list (List.map snd entries) }

let of_sorted ~dim idx v =
  let n = Array.length idx in
  if Array.length v <> n then invalid_arg "Sparse.of_sorted: length mismatch";
  for k = 0 to n - 1 do
    if idx.(k) < 0 || idx.(k) >= dim then
      invalid_arg "Sparse.of_sorted: index out of range";
    if k > 0 && idx.(k) <= idx.(k - 1) then
      invalid_arg "Sparse.of_sorted: indices not strictly increasing";
    if v.(k) = 0. then invalid_arg "Sparse.of_sorted: explicit zero entry"
  done;
  { dim; idx = Array.copy idx; v = Array.copy v }

let of_dense a =
  let entries = ref [] in
  for i = Array.length a - 1 downto 0 do
    if a.(i) <> 0. then entries := (i, a.(i)) :: !entries
  done;
  let entries = !entries in
  { dim = Array.length a;
    idx = Array.of_list (List.map fst entries);
    v = Array.of_list (List.map snd entries) }

let to_dense t =
  let a = Array.make t.dim 0. in
  Array.iteri (fun k i -> a.(i) <- t.v.(k)) t.idx;
  a

let dim t = t.dim
let nnz t = Array.length t.idx

let get t i =
  if i < 0 || i >= t.dim then invalid_arg "Sparse.get: index out of range";
  (* Binary search over the sorted index array. *)
  let lo = ref 0 and hi = ref (Array.length t.idx - 1) and found = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.idx.(mid) = i then begin
      found := t.v.(mid);
      lo := !hi + 1
    end
    else if t.idx.(mid) < i then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let nonzeros t = Array.init (nnz t) (fun k -> (t.idx.(k), t.v.(k)))
let iteri f t = Array.iteri (fun k i -> f i t.v.(k)) t.idx

let dot a b =
  if a.dim <> b.dim then invalid_arg "Sparse.dot: dimension mismatch";
  let acc = ref 0. and i = ref 0 and j = ref 0 in
  let na = Array.length a.idx and nb = Array.length b.idx in
  while !i < na && !j < nb do
    let ia = a.idx.(!i) and ib = b.idx.(!j) in
    if ia = ib then begin
      acc := !acc +. (a.v.(!i) *. b.v.(!j));
      incr i;
      incr j
    end
    else if ia < ib then incr i
    else incr j
  done;
  !acc

(* The one sparse-dense dot kernel: the [lo, hi) range of an (idx, v)
   pair against dense [w].  The loop is unrolled 4-wide but keeps a
   single accumulator chain: float addition is not associative, so
   partial sums would change results; one chain makes the unrolled loop
   bit-identical to the plain increasing-index sum while amortizing
   loop control.  The range is validated up front, so idx/v use unsafe
   loads; [w] is indexed through idx contents and stays checked. *)
let dot_range idx v lo hi w =
  if lo < 0 || hi < lo || hi > Array.length idx || hi > Array.length v then
    invalid_arg "Sparse.dot_range: range out of bounds";
  let acc = ref 0. in
  let k = ref lo in
  while !k + 4 <= hi do
    let k0 = !k in
    acc := !acc +. (Array.unsafe_get v k0 *. w.(Array.unsafe_get idx k0));
    acc := !acc +. (Array.unsafe_get v (k0 + 1) *. w.(Array.unsafe_get idx (k0 + 1)));
    acc := !acc +. (Array.unsafe_get v (k0 + 2) *. w.(Array.unsafe_get idx (k0 + 2)));
    acc := !acc +. (Array.unsafe_get v (k0 + 3) *. w.(Array.unsafe_get idx (k0 + 3)));
    k := k0 + 4
  done;
  while !k < hi do
    acc := !acc +. (Array.unsafe_get v !k *. w.(Array.unsafe_get idx !k));
    incr k
  done;
  !acc

let dot_dense t d =
  if Array.length d < t.dim then invalid_arg "Sparse.dot_dense: dense side too short";
  dot_range t.idx t.v 0 (Array.length t.idx) d

let axpy_dense a t d =
  if Array.length d < t.dim then invalid_arg "Sparse.axpy_dense: dense side too short";
  Array.iteri (fun k i -> d.(i) <- d.(i) +. (a *. t.v.(k))) t.idx

let merge op a b =
  if a.dim <> b.dim then invalid_arg "Sparse.merge: dimension mismatch";
  let out = ref [] in
  let na = Array.length a.idx and nb = Array.length b.idx in
  let i = ref 0 and j = ref 0 in
  let push idx v = if v <> 0. then out := (idx, v) :: !out in
  while !i < na || !j < nb do
    if !i < na && (!j >= nb || a.idx.(!i) < b.idx.(!j)) then begin
      push a.idx.(!i) (op a.v.(!i) 0.);
      incr i
    end
    else if !j < nb && (!i >= na || b.idx.(!j) < a.idx.(!i)) then begin
      push b.idx.(!j) (op 0. b.v.(!j));
      incr j
    end
    else begin
      push a.idx.(!i) (op a.v.(!i) b.v.(!j));
      incr i;
      incr j
    end
  done;
  let entries = List.rev !out in
  { dim = a.dim;
    idx = Array.of_list (List.map fst entries);
    v = Array.of_list (List.map snd entries) }

let sub a b = merge ( -. ) a b

let scale a t =
  if a = 0. then { dim = t.dim; idx = [||]; v = [||] }
  else { t with v = Array.map (fun x -> a *. x) t.v }

let norm2 t = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. t.v

let map_values f t =
  let entries = ref [] in
  for k = Array.length t.idx - 1 downto 0 do
    let x = f t.v.(k) in
    if x <> 0. then entries := (t.idx.(k), x) :: !entries
  done;
  let entries = !entries in
  { dim = t.dim;
    idx = Array.of_list (List.map fst entries);
    v = Array.of_list (List.map snd entries) }

let concat ts =
  let total = List.fold_left (fun acc t -> acc + t.dim) 0 ts in
  let entries = ref [] in
  let offset = ref 0 in
  List.iter
    (fun t ->
      Array.iteri (fun k i -> entries := (i + !offset, t.v.(k)) :: !entries) t.idx;
      offset := !offset + t.dim)
    ts;
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) !entries in
  { dim = total;
    idx = Array.of_list (List.map fst entries);
    v = Array.of_list (List.map snd entries) }

let equal ?(eps = 1e-12) a b =
  a.dim = b.dim
  &&
  let d = sub a b in
  Array.for_all (fun x -> Float.abs x <= eps) d.v

let pp ppf t =
  Format.fprintf ppf "{dim=%d;@ " t.dim;
  Array.iteri (fun k i -> Format.fprintf ppf "%d:%g@ " i t.v.(k)) t.idx;
  Format.fprintf ppf "}"

type sparse = t

(* Compressed sparse rows: one flat index array, one flat value array,
   row offsets.  Row [r] lives at [offs.(r), offs.(r+1)) of [idx]/[v]
   and obeys the same invariant as a sparse vector (strictly increasing
   indices, no explicit zeros), so every row kernel below performs the
   exact float operations of its [Sparse.t] counterpart — batch callers
   get bit-identical results with zero per-row allocation. *)
module Csr = struct
  type t = { offs : int array; idx : int array; v : float array }

  let of_rows ~dim rs =
    let n = Array.length rs in
    let offs = Array.make (n + 1) 0 in
    Array.iteri
      (fun r (s : sparse) ->
        if s.dim <> dim then invalid_arg "Csr.of_rows: row dimension mismatch";
        offs.(r + 1) <- offs.(r) + Array.length s.idx)
      rs;
    let total = offs.(n) in
    let idx = Array.make total 0 and v = Array.make total 0. in
    Array.iteri
      (fun r (s : sparse) ->
        Array.blit s.idx 0 idx offs.(r) (Array.length s.idx);
        Array.blit s.v 0 v offs.(r) (Array.length s.v))
      rs;
    { offs; idx; v }

  let dot_row t r w = dot_range t.idx t.v t.offs.(r) t.offs.(r + 1) w

  let axpy_row a t r y =
    for k = t.offs.(r) to t.offs.(r + 1) - 1 do
      y.(t.idx.(k)) <- y.(t.idx.(k)) +. (a *. t.v.(k))
    done

  let norm2_row t r =
    let acc = ref 0. in
    for k = t.offs.(r) to t.offs.(r + 1) - 1 do
      acc := !acc +. (t.v.(k) *. t.v.(k))
    done;
    !acc
end
