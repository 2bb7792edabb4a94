type mode = Canonical | Extended

let max_buffers = 4.

(* Forced inlining keeps these float helpers out of the hot encoding
   path's call graph: a non-inlined call boxes its float argument and
   result, which is most of the allocation an encode would make.  The
   divisor is hoisted to module init — [log 2.] is not constant-folded,
   and inline it would cost a second [log] call per [lg2].  Dividing by
   the identical value keeps every result bit-identical. *)
let log2_c = log 2.
let[@inline always] lg2 x = log x /. log2_c

(* [lg2i] answers from a table for small arguments: the hot encoding
   path takes logs of block sizes, unroll/chunk factors and tile
   counts, which are almost always below the table size.  Entries are
   filled with the identical expression the fallback computes, so a
   table hit is bit-identical to the direct computation. *)
let lg2i_tbl = Array.init 4096 (fun i -> log (float_of_int i) /. log2_c)

let[@inline always] lg2i x =
  if x > 0 && x < 4096 then Array.unsafe_get lg2i_tbl x
  else lg2 (float_of_int x)

(* Canonical layout (§III): pattern matrix, buffers, dtype, sizes,
   tuning parameters. *)
let pattern_base = 0
let buffers_idx = Pattern.cells (* 343 *)
let dtype_idx = buffers_idx + 1
let size_base = dtype_idx + 1 (* 3 cells *)
let tuning_base = size_base + 3 (* 5 cells: bx by bz u c *)
let canonical_dim = tuning_base + 5 (* 353 *)

(* Extended layout: hardware-independent derived features.  Continuous
   interaction terms first, then one-hot bins that give the linear
   ranker a piecewise-constant basis over each tuning parameter and
   over the cache-relevant derived quantities (block-size preference is
   not monotone, so log-scaled scalars alone cannot express it). *)
let continuous_count = 10
let block_bins = 11 (* log2(b) in 0..10 *)
let unroll_bins = 9 (* u one-hot, 0..8 *)
let chunk_bins = 9 (* log2(c) in 0..8 *)
let ws_bins = 20 (* log2(working-set bytes), 10..29 *)
let reuse_bins = 20 (* log2(streaming reuse bytes), 10..29 *)
let count_bins = 13 (* log2(tiles|chunks)/2, 0..12 *)

let continuous_base = canonical_dim
let bx_bins_base = continuous_base + continuous_count
let by_bins_base = bx_bins_base + block_bins
let bz_bins_base = by_bins_base + block_bins
let unroll_bins_base = bz_bins_base + block_bins
let chunk_bins_base = unroll_bins_base + unroll_bins
let ws_bins_base = chunk_bins_base + chunk_bins
let reuse_bins_base = ws_bins_base + ws_bins
let tiles_bins_base = reuse_bins_base + reuse_bins
let chunks_bins_base = tiles_bins_base + count_bins
let extended_dim = chunks_bins_base + count_bins

let dim = function Canonical -> canonical_dim | Extended -> extended_dim

let[@inline always] clamp01 v = if v < 0. then 0. else if v > 1. then 1. else v
let[@inline always] clamp_int v lo hi = if v < lo then lo else if v > hi then hi else v

let[@inline always] log2_bin v lo hi =
  clamp_int (int_of_float (Float.round (lg2 v)) - lo) 0 (hi - lo)

(* Integer-argument variant; equal to [log2_bin (float_of_int x) lo hi]
   because [lg2i] is bit-identical to [lg2 (float_of_int x)]. *)
let[@inline always] log2_bin_i x lo hi =
  clamp_int (int_of_float (Float.round (lg2i x)) - lo) 0 (hi - lo)

(* Static per-instance inputs of the tuning-dependent entries,
   precomputed once ([compile] hoists this out of the per-candidate
   loop; the list path rebuilds it per call) so the hot emitter below
   touches only ints, unboxed floats and the target arrays. *)
type tctx = {
  x_mode : mode;
  x_sx : int;
  x_sy : int;
  x_sz : int;
  x_nbuf : int;
  x_bytes : float;
  x_taps : int;
  x_rx : int array; (* per-buffer pattern radii *)
  x_ry : int array;
  x_rz : int array;
}

let tctx mode inst =
  let k = Instance.kernel inst in
  let s = Instance.size inst in
  let radii = Array.of_list (List.map Pattern.radius (Kernel.buffer_patterns k)) in
  {
    x_mode = mode;
    x_sx = s.Instance.sx;
    x_sy = s.Instance.sy;
    x_sz = s.Instance.sz;
    x_nbuf = Kernel.num_buffers k;
    x_bytes = float_of_int (Dtype.bytes (Kernel.dtype k));
    x_taps = Kernel.taps k;
    x_rx = Array.map (fun (r, _, _) -> r) radii;
    x_ry = Array.map (fun (_, r, _) -> r) radii;
    x_rz = Array.map (fun (_, _, r) -> r) radii;
  }

(* Instance-only entries, shared by every tuning vector of one
   instance; [compile] and [encoder_entries] precompute them so ranking
   thousands of candidates re-derives only the tuning-dependent part. *)
let instance_entries inst =
  let k = Instance.kernel inst in
  let s = Instance.size inst in
  let nb = float_of_int (Kernel.num_buffers k) in
  let entries = ref [] in
  let push i v = if v <> 0. then entries := (i, v) :: !entries in
  (* Pattern cells: per-offset access multiplicity, normalized. *)
  let counts = Hashtbl.create 32 in
  List.iter
    (fun p ->
      List.iter
        (fun o ->
          let c = try Hashtbl.find counts o with Not_found -> 0 in
          Hashtbl.replace counts o (c + 1))
        (Pattern.offsets p))
    (Kernel.buffer_patterns k);
  Hashtbl.iter
    (fun o c -> push (pattern_base + Pattern.cell_index o) (float_of_int c /. nb))
    counts;
  push buffers_idx (clamp01 (nb /. max_buffers));
  push dtype_idx (Dtype.to_feature (Kernel.dtype k));
  push size_base (clamp01 (lg2i s.Instance.sx /. 11.));
  push (size_base + 1) (clamp01 (lg2i s.Instance.sy /. 11.));
  push (size_base + 2) (clamp01 (lg2i s.Instance.sz /. 11.));
  !entries

(* Upper bound on tuning-dependent entries: 5 canonical scalars plus,
   in extended mode, the continuous block and one entry per one-hot
   bin group. *)
let max_tuning_entries = function
  | Canonical -> 5
  | Extended -> 5 + continuous_count + 9

(* Per-feature value functions, shared by the entry emitter below and
   the grid tables: both must compute the same float from the same
   integers, or a table score could drift from the encoded one. *)
let[@inline always] f_block_scalar b = clamp01 (lg2i b /. 10.)
let[@inline always] f_unroll_scalar u = clamp01 (float_of_int u /. 8.)
let[@inline always] f_chunk_scalar c = clamp01 (lg2i c /. 8.)
let[@inline always] f_tile_volume pts = clamp01 (lg2i pts /. 30.)
let[@inline always] f_working_set bytes = clamp01 (lg2 bytes /. 35.)

(* Halo fraction (W - T(nbuf+1))/W: increasing in W, decreasing in T
   (both exact ints, so the float quotient of exactly-representable
   operands is correctly rounded and order-preserving). *)
let[@inline always] f_halo ws_pts tile_pts nbuf =
  clamp01 (float_of_int (ws_pts - (tile_pts * (nbuf + 1))) /. float_of_int ws_pts)

let[@inline always] f_cover b s = clamp01 (float_of_int b /. float_of_int s)
let[@inline always] f_simd_remainder b = clamp01 (float_of_int (b mod 8) /. 8.)
let[@inline always] f_unroll_pressure u_eff taps = clamp01 (lg2i (u_eff * taps) /. 10.)
let[@inline always] f_count x = clamp01 (lg2i (max 1 x) /. 24.)
let[@inline always] count_bin x = clamp_int (log2_bin_i (max 1 x) 0 24 / 2) 0 (count_bins - 1)

(* Single source of truth for the tuning-dependent entries: every
   encoding path (the seed entry lists and the compiled encoder) writes
   through this function, so all paths produce the same floats by
   construction.  Entries land at strictly increasing indices — all
   above the instance block — with zeros skipped.  Direct array writes
   (instead of an emit callback) keep the hot path allocation-free:
   values never cross a function boundary, so no float is boxed.  The
   integer accumulations are exact, so hoisting the instance scalars
   into [tctx] cannot change any emitted value. *)
let write_tuning_entries ctx (t : Tuning.t) idx v pos =
  (* [n] is a non-escaping ref (eliminated by the compiler) and the
     zero-skip test is expanded at every site instead of going through
     a local [push] closure: a closure call would box each float value
     on its way to the store.  One-hot bins always carry 1. and skip
     the test entirely. *)
  let n = ref pos in
  let x = f_block_scalar t.Tuning.bx in
  if x <> 0. then begin idx.(!n) <- tuning_base; v.(!n) <- x; incr n end;
  let x = f_block_scalar t.Tuning.by in
  if x <> 0. then begin idx.(!n) <- tuning_base + 1; v.(!n) <- x; incr n end;
  let x = f_block_scalar t.Tuning.bz in
  if x <> 0. then begin idx.(!n) <- tuning_base + 2; v.(!n) <- x; incr n end;
  let x = f_unroll_scalar t.Tuning.u in
  if x <> 0. then begin idx.(!n) <- tuning_base + 3; v.(!n) <- x; incr n end;
  let x = f_chunk_scalar t.Tuning.c in
  if x <> 0. then begin idx.(!n) <- tuning_base + 4; v.(!n) <- x; incr n end;
  (match ctx.x_mode with
  | Canonical -> ()
  | Extended ->
    (* Derived static quantities coupling instance and tuning: tile
       volume, working-set and streaming-reuse footprints (summed over
       the buffer patterns), halo fraction, tile/chunk counts. *)
    let bx = min t.Tuning.bx ctx.x_sx
    and by = min t.Tuning.by ctx.x_sy
    and bz = min t.Tuning.bz ctx.x_sz in
    let tile_pts = bx * by * bz in
    let ws_pts = ref tile_pts and reuse_pts = ref bx in
    for p = 0 to Array.length ctx.x_rx - 1 do
      let ex = min (bx + (2 * ctx.x_rx.(p))) ctx.x_sx
      and ey = min (by + (2 * ctx.x_ry.(p))) ctx.x_sy
      and ez = min (bz + (2 * ctx.x_rz.(p))) ctx.x_sz in
      ws_pts := !ws_pts + (ex * ey * ez);
      reuse_pts := !reuse_pts + (ex * ey * min ((2 * ctx.x_rz.(p)) + 1) ctx.x_sz)
    done;
    let ws_pts = !ws_pts and reuse_pts = !reuse_pts in
    let ceil_div a b = (a + b - 1) / b in
    let tiles = ceil_div ctx.x_sx bx * ceil_div ctx.x_sy by * ceil_div ctx.x_sz bz in
    let chunks = ceil_div tiles t.Tuning.c in
    let ws_bytes = float_of_int ws_pts *. ctx.x_bytes in
    let reuse_bytes = float_of_int reuse_pts *. ctx.x_bytes in
    let u_eff = max 1 t.Tuning.u in
    (* the continuous block, in [continuous_names] order *)
    let x = f_tile_volume tile_pts in
    if x <> 0. then begin idx.(!n) <- continuous_base; v.(!n) <- x; incr n end;
    let x = f_working_set ws_bytes in
    if x <> 0. then begin idx.(!n) <- continuous_base + 1; v.(!n) <- x; incr n end;
    let x = f_halo ws_pts tile_pts ctx.x_nbuf in
    if x <> 0. then begin idx.(!n) <- continuous_base + 2; v.(!n) <- x; incr n end;
    let x = f_cover bx ctx.x_sx in
    if x <> 0. then begin idx.(!n) <- continuous_base + 3; v.(!n) <- x; incr n end;
    let x = f_cover by ctx.x_sy in
    if x <> 0. then begin idx.(!n) <- continuous_base + 4; v.(!n) <- x; incr n end;
    let x = f_cover bz ctx.x_sz in
    if x <> 0. then begin idx.(!n) <- continuous_base + 5; v.(!n) <- x; incr n end;
    let x = f_simd_remainder bx in
    if x <> 0. then begin idx.(!n) <- continuous_base + 6; v.(!n) <- x; incr n end;
    let x = f_unroll_pressure u_eff ctx.x_taps in
    if x <> 0. then begin idx.(!n) <- continuous_base + 7; v.(!n) <- x; incr n end;
    let x = f_count tiles in
    if x <> 0. then begin idx.(!n) <- continuous_base + 8; v.(!n) <- x; incr n end;
    let x = f_count chunks in
    if x <> 0. then begin idx.(!n) <- continuous_base + 9; v.(!n) <- x; incr n end;
    idx.(!n) <- bx_bins_base + log2_bin_i t.Tuning.bx 0 (block_bins - 1);
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- by_bins_base + log2_bin_i t.Tuning.by 0 (block_bins - 1);
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- bz_bins_base + log2_bin_i t.Tuning.bz 0 (block_bins - 1);
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- unroll_bins_base + clamp_int t.Tuning.u 0 (unroll_bins - 1);
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- chunk_bins_base + log2_bin_i t.Tuning.c 0 (chunk_bins - 1);
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- ws_bins_base + log2_bin ws_bytes 10 (10 + ws_bins - 1);
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- reuse_bins_base + log2_bin reuse_bytes 10 (10 + reuse_bins - 1);
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- tiles_bins_base + count_bin tiles;
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- chunks_bins_base + count_bin chunks;
    v.(!n) <- 1.;
    incr n);
  !n

let tuning_entries mode inst t =
  let ctx = tctx mode inst in
  let cap = max_tuning_entries mode in
  let idx = Array.make cap 0 and v = Array.make cap 0. in
  let n = write_tuning_entries ctx t idx v 0 in
  List.init n (fun k -> (idx.(k), v.(k)))

let encoded_counter = Sorl_util.Telemetry.counter "features.encoded"

let encoder_entries mode inst =
  let base = instance_entries inst in
  fun t ->
    Sorl_util.Telemetry.incr encoded_counter;
    base @ tuning_entries mode inst t

(* Weight-free tables of every tuning-dependent feature over one
   tuning grid: a value per axis value, per block cube (row-major over
   bx, by, bz) or per (cube, c) pair ([cube * nc + ic]).  Values are
   exactly what [write_tuning_entries] emits, 0. where it skips the
   entry; a bin table holds the feature index that fires.  The
   Extended-only tables are empty in Canonical mode. *)
type grid = {
  g_bx : int array;  (** the axes spanned — the cache key *)
  g_by : int array;
  g_bz : int array;
  g_u : int array;
  g_c : int array;
  g_xbx : float array;  (** per axis value: the canonical scalars... *)
  g_xby : float array;
  g_xbz : float array;
  g_xu : float array;
  g_xc : float array;
  g_cov_x : float array;  (** ...cover, SIMD remainder, unroll pressure... *)
  g_cov_y : float array;
  g_cov_z : float array;
  g_simd : float array;
  g_press : float array;
  g_bin_bx : int array;  (** ...and the bins *)
  g_bin_by : int array;
  g_bin_bz : int array;
  g_bin_u : int array;
  g_bin_c : int array;
  g_tile : float array;  (** per cube *)
  g_ws : float array;
  g_halo : float array;
  g_tiles : float array;
  g_bin_ws : int array;
  g_bin_reuse : int array;
  g_bin_tiles : int array;
  g_chunks : float array;  (** per (cube, c) *)
  g_bin_chunks : int array;
}

(* ---- Compiled per-instance encoder (zero-allocation fast path) ---- *)

(* The instance-dependent entries are materialized once into flat
   sorted arrays; encoding a tuning vector then blits them and appends
   the tuning-dependent entries, which [write_tuning_entries] emits in
   strictly increasing index order above them.  The result slice
   therefore satisfies the [Sparse.of_sorted] invariant directly — no
   hashing, sorting or per-candidate list in sight — and holds exactly
   the entries (same floats, same canonical order) that
   [Sparse.of_list] builds from the seed [encoder_entries] list. *)
type compiled = {
  c_mode : mode;
  c_dim : int;
  c_ctx : tctx;
  c_inst_idx : int array;
  c_inst_v : float array;
  c_max_nnz : int;
  c_grid : grid option Atomic.t;  (** ranking tables, built on first use *)
}

let compile mode inst =
  let base =
    List.sort (fun (a, _) (b, _) -> compare (a : int) b) (instance_entries inst)
  in
  let c_inst_idx = Array.of_list (List.map fst base) in
  let c_inst_v = Array.of_list (List.map snd base) in
  {
    c_mode = mode;
    c_dim = dim mode;
    c_ctx = tctx mode inst;
    c_inst_idx;
    c_inst_v;
    c_max_nnz = Array.length c_inst_idx + max_tuning_entries mode;
    c_grid = Atomic.make None;
  }

let compiled_mode c = c.c_mode
let compiled_dim c = c.c_dim
let max_nnz c = c.c_max_nnz

(* Writes one encoding at position [pos] of [idx]/[v] and returns the
   end position.  The caller guarantees [max_nnz] cells of headroom. *)
let encode_at c t idx v pos =
  Sorl_util.Telemetry.incr encoded_counter;
  let base_n = Array.length c.c_inst_idx in
  Array.blit c.c_inst_idx 0 idx pos base_n;
  Array.blit c.c_inst_v 0 v pos base_n;
  write_tuning_entries c.c_ctx t idx v (pos + base_n)

let encode_into c t idx v =
  if Array.length idx < c.c_max_nnz || Array.length v < c.c_max_nnz then
    invalid_arg "Features.encode_into: scratch smaller than max_nnz";
  encode_at c t idx v 0

(* The per-instance encoder as a sparse vector: one [encode_into] into
   fresh scratch per call (so the closure is reentrant), then the
   checked [of_sorted] build.  [encode mode inst] partially applied
   compiles once and serves every tuning of that instance. *)
let encode mode inst =
  let c = compile mode inst in
  fun t ->
    let idx = Array.make c.c_max_nnz 0 and v = Array.make c.c_max_nnz 0. in
    let n = encode_into c t idx v in
    Sorl_util.Sparse.of_sorted ~dim:c.c_dim (Array.sub idx 0 n) (Array.sub v 0 n)

(* ---- Score tables over a tuning grid (ranking and its bounds) ----

   The rank model is linear, so w·φ(inst, t) is the instance prefix
   plus one product per tuning-dependent entry of
   [write_tuning_entries], and every such value depends on one tuning
   axis, on the block triple (a cube), or on the cube and the chunk
   size.  [build_grid] tabulates those values once per (encoder,
   axes) with no weights in them, so they outlive model generations;
   a [bounder] applies one weight vector per ranking call. *)

(* Derived integer quantities of one block triple — the same
   arithmetic as the Extended branch of [write_tuning_entries] (pinned
   together by the table parity tests).  This returns a tuple, so only
   the table build calls it; the per-candidate emitter keeps its
   allocation-free inline form. *)
let derived_pts ctx bxr byr bzr =
  let bx = min bxr ctx.x_sx and by = min byr ctx.x_sy and bz = min bzr ctx.x_sz in
  let tile_pts = bx * by * bz in
  let ws_pts = ref tile_pts and reuse_pts = ref bx in
  for p = 0 to Array.length ctx.x_rx - 1 do
    let ex = min (bx + (2 * ctx.x_rx.(p))) ctx.x_sx
    and ey = min (by + (2 * ctx.x_ry.(p))) ctx.x_sy
    and ez = min (bz + (2 * ctx.x_rz.(p))) ctx.x_sz in
    ws_pts := !ws_pts + (ex * ey * ez);
    reuse_pts := !reuse_pts + (ex * ey * min ((2 * ctx.x_rz.(p)) + 1) ctx.x_sz)
  done;
  let ceil_div a b = (a + b - 1) / b in
  let tiles = ceil_div ctx.x_sx bx * ceil_div ctx.x_sy by * ceil_div ctx.x_sz bz in
  (tile_pts, !ws_pts, !reuse_pts, tiles)

let build_grid ctx ~bx ~by ~bz ~u ~c =
  let ext = ctx.x_mode = Extended in
  let ext_map f ax = if ext then Array.map f ax else [||] in
  let nby = Array.length by and nbz = Array.length bz and nc = Array.length c in
  let ncubes = if ext then Array.length bx * nby * nbz else 0 in
  let g_tile = Array.make ncubes 0. and g_ws = Array.make ncubes 0. in
  let g_halo = Array.make ncubes 0. and g_tiles = Array.make ncubes 0. in
  let g_bin_ws = Array.make ncubes 0 and g_bin_reuse = Array.make ncubes 0 in
  let g_bin_tiles = Array.make ncubes 0 in
  let g_chunks = Array.make (ncubes * nc) 0. and g_bin_chunks = Array.make (ncubes * nc) 0 in
  for cube = 0 to ncubes - 1 do
    let tile_pts, ws_pts, reuse_pts, tiles =
      derived_pts ctx bx.(cube / (nby * nbz)) by.(cube / nbz mod nby) bz.(cube mod nbz)
    in
    let ws_bytes = float_of_int ws_pts *. ctx.x_bytes in
    let reuse_bytes = float_of_int reuse_pts *. ctx.x_bytes in
    g_tile.(cube) <- f_tile_volume tile_pts;
    g_ws.(cube) <- f_working_set ws_bytes;
    g_halo.(cube) <- f_halo ws_pts tile_pts ctx.x_nbuf;
    g_tiles.(cube) <- f_count tiles;
    g_bin_ws.(cube) <- ws_bins_base + log2_bin ws_bytes 10 (10 + ws_bins - 1);
    g_bin_reuse.(cube) <- reuse_bins_base + log2_bin reuse_bytes 10 (10 + reuse_bins - 1);
    g_bin_tiles.(cube) <- tiles_bins_base + count_bin tiles;
    Array.iteri
      (fun ic cv ->
        let chunks = (tiles + cv - 1) / cv in
        g_chunks.((cube * nc) + ic) <- f_count chunks;
        g_bin_chunks.((cube * nc) + ic) <- chunks_bins_base + count_bin chunks)
      c
  done;
  let block_bin base b = base + log2_bin_i b 0 (block_bins - 1) in
  {
    g_bx = bx; g_by = by; g_bz = bz; g_u = u; g_c = c;
    g_xbx = Array.map f_block_scalar bx;
    g_xby = Array.map f_block_scalar by;
    g_xbz = Array.map f_block_scalar bz;
    g_xu = Array.map f_unroll_scalar u;
    g_xc = Array.map f_chunk_scalar c;
    g_cov_x = ext_map (fun b -> f_cover (min b ctx.x_sx) ctx.x_sx) bx;
    g_cov_y = ext_map (fun b -> f_cover (min b ctx.x_sy) ctx.x_sy) by;
    g_cov_z = ext_map (fun b -> f_cover (min b ctx.x_sz) ctx.x_sz) bz;
    g_simd = ext_map (fun b -> f_simd_remainder (min b ctx.x_sx)) bx;
    g_press = ext_map (fun v -> f_unroll_pressure (max 1 v) ctx.x_taps) u;
    g_bin_bx = ext_map (block_bin bx_bins_base) bx;
    g_bin_by = ext_map (block_bin by_bins_base) by;
    g_bin_bz = ext_map (block_bin bz_bins_base) bz;
    g_bin_u = ext_map (fun v -> unroll_bins_base + clamp_int v 0 (unroll_bins - 1)) u;
    g_bin_c = ext_map (fun v -> chunk_bins_base + log2_bin_i v 0 (chunk_bins - 1)) c;
    g_tile; g_ws; g_halo; g_tiles; g_bin_ws; g_bin_reuse; g_bin_tiles; g_chunks; g_bin_chunks;
  }

(* Built on first ranking use, not in [compile] (training compiles
   every instance and never ranks), and published atomically: two
   domains racing the first build make equal tables, and either may
   win. *)
let grid enc ~bx ~by ~bz ~u ~c =
  match Atomic.get enc.c_grid with
  | Some g when g.g_bx = bx && g.g_by = by && g.g_bz = bz && g.g_u = u && g.g_c = c -> g
  | _ ->
    let g = build_grid enc.c_ctx ~bx ~by ~bz ~u ~c in
    Atomic.set enc.c_grid (Some g);
    g

type bounder = {
  b_g : grid;
  b_w : float array;
  b_ext : bool;
  b_inst : float;  (** instance prefix: the dot over the instance block *)
  b_min_u : float;  (** smallest sum of the terms that depend on u alone *)
}

(* One weighted term: the product the encoder's entry adds to the dot,
   or [-0.] — the exact additive identity — where it skips a zero. *)
let[@inline always] wx x w j = if x <> 0. then x *. w.(j) else -0.

let check_axis name a =
  if Array.length a = 0 then invalid_arg ("Features.bounder: empty axis " ^ name);
  for i = 1 to Array.length a - 1 do
    if a.(i) <= a.(i - 1) then
      invalid_arg ("Features.bounder: axis not strictly ascending: " ^ name)
  done

let bounder enc ~w ~bx ~by ~bz ~u ~c =
  if Array.length w <> enc.c_dim then invalid_arg "Features.bounder: weight dimension mismatch";
  check_axis "bx" bx;
  check_axis "by" by;
  check_axis "bz" bz;
  check_axis "u" u;
  check_axis "c" c;
  let g = grid enc ~bx ~by ~bz ~u ~c in
  let ext = enc.c_mode = Extended in
  let min_u = ref infinity in
  for iu = 0 to Array.length u - 1 do
    let s = wx g.g_xu.(iu) w (tuning_base + 3) in
    let s =
      if ext then s +. wx g.g_press.(iu) w (continuous_base + 7) +. w.(g.g_bin_u.(iu)) else s
    in
    if s < !min_u then min_u := s
  done;
  {
    b_g = g;
    b_w = w;
    b_ext = ext;
    b_inst = Sorl_util.Sparse.dot_range enc.c_inst_idx enc.c_inst_v 0 (Array.length enc.c_inst_idx) w;
    b_min_u = !min_u;
  }

(* A cube's score is, in real arithmetic, B(cube) + U(u) + C(cube, c):
   the terms fixed by the block triple, those of u alone, and those
   of c and the chunk count.  Minimizing U and C separately bounds
   every candidate from below; the relative epsilon absorbs the
   different summation order of the scores it brackets. *)
let cube_bound b cube =
  let g = b.b_g and w = b.b_w in
  let nby = Array.length g.g_by and nbz = Array.length g.g_bz and nc = Array.length g.g_c in
  let ibx = cube / (nby * nbz) and iby = cube / nbz mod nby and ibz = cube mod nbz in
  let tb = tuning_base and cb = continuous_base in
  let fixed =
    b.b_inst +. wx g.g_xbx.(ibx) w tb +. wx g.g_xby.(iby) w (tb + 1) +. wx g.g_xbz.(ibz) w (tb + 2)
  in
  let fixed =
    if not b.b_ext then fixed
    else
      fixed +. wx g.g_tile.(cube) w cb +. wx g.g_ws.(cube) w (cb + 1)
      +. wx g.g_halo.(cube) w (cb + 2) +. wx g.g_cov_x.(ibx) w (cb + 3)
      +. wx g.g_cov_y.(iby) w (cb + 4) +. wx g.g_cov_z.(ibz) w (cb + 5)
      +. wx g.g_simd.(ibx) w (cb + 6) +. wx g.g_tiles.(cube) w (cb + 8)
      +. w.(g.g_bin_bx.(ibx)) +. w.(g.g_bin_by.(iby)) +. w.(g.g_bin_bz.(ibz))
      +. w.(g.g_bin_ws.(cube)) +. w.(g.g_bin_reuse.(cube)) +. w.(g.g_bin_tiles.(cube))
  in
  let min_c = ref infinity in
  for ic = 0 to nc - 1 do
    let cc = (cube * nc) + ic in
    let s = wx g.g_xc.(ic) w (tb + 4) in
    let s =
      if b.b_ext then
        s +. w.(g.g_bin_c.(ic)) +. wx g.g_chunks.(cc) w (cb + 9) +. w.(g.g_bin_chunks.(cc))
      else s
    in
    if s < !min_c then min_c := s
  done;
  let a = fixed +. b.b_min_u +. !min_c in
  a -. (1e-9 *. (1. +. Float.abs a))

(* Every score adds the same products as [encode_into] + [dot_range],
   in the same increasing feature-index order, from the same instance
   prefix (OCaml's [+.] chains associate left), so it is bit-identical
   to the encoded path; a skipped zero entry adds [-0.], which changes
   nothing. *)
let score_cube b cube out pos =
  let g = b.b_g and w = b.b_w in
  let nby = Array.length g.g_by and nbz = Array.length g.g_bz in
  let nu = Array.length g.g_u and nc = Array.length g.g_c in
  let ibx = cube / (nby * nbz) and iby = cube / nbz mod nby and ibz = cube mod nbz in
  let tb = tuning_base and cb = continuous_base in
  let acc =
    b.b_inst +. wx g.g_xbx.(ibx) w tb +. wx g.g_xby.(iby) w (tb + 1) +. wx g.g_xbz.(ibz) w (tb + 2)
  in
  if not b.b_ext then
    for iu = 0 to nu - 1 do
      let su = acc +. wx g.g_xu.(iu) w (tb + 3) in
      for ic = 0 to nc - 1 do
        out.(pos + (iu * nc) + ic) <- su +. wx g.g_xc.(ic) w (tb + 4)
      done
    done
  else begin
    let tile = wx g.g_tile.(cube) w cb and ws = wx g.g_ws.(cube) w (cb + 1) in
    let halo = wx g.g_halo.(cube) w (cb + 2) and cov_x = wx g.g_cov_x.(ibx) w (cb + 3) in
    let cov_y = wx g.g_cov_y.(iby) w (cb + 4) and cov_z = wx g.g_cov_z.(ibz) w (cb + 5) in
    let simd = wx g.g_simd.(ibx) w (cb + 6) and tiles = wx g.g_tiles.(cube) w (cb + 8) in
    let bin_bx = w.(g.g_bin_bx.(ibx)) and bin_by = w.(g.g_bin_by.(iby)) in
    let bin_bz = w.(g.g_bin_bz.(ibz)) and bin_ws = w.(g.g_bin_ws.(cube)) in
    let bin_reuse = w.(g.g_bin_reuse.(cube)) and bin_tiles = w.(g.g_bin_tiles.(cube)) in
    for iu = 0 to nu - 1 do
      let su = acc +. wx g.g_xu.(iu) w (tb + 3) in
      let press = wx g.g_press.(iu) w (cb + 7) and bin_u = w.(g.g_bin_u.(iu)) in
      for ic = 0 to nc - 1 do
        let cc = (cube * nc) + ic in
        out.(pos + (iu * nc) + ic) <-
          su +. wx g.g_xc.(ic) w (tb + 4) +. tile +. ws +. halo +. cov_x +. cov_y +. cov_z
          +. simd +. press +. tiles +. wx g.g_chunks.(cc) w (cb + 9) +. bin_bx +. bin_by +. bin_bz
          +. bin_u +. w.(g.g_bin_c.(ic)) +. bin_ws +. bin_reuse +. bin_tiles
          +. w.(g.g_bin_chunks.(cc))
      done
    done
  end

let continuous_names =
  [|
    "x:tile_volume"; "x:working_set"; "x:halo_fraction"; "x:cover_x"; "x:cover_y";
    "x:cover_z"; "x:simd_remainder"; "x:unroll_pressure"; "x:tiles"; "x:chunks";
  |]

let names mode =
  let base =
    Array.init canonical_dim (fun i ->
        if i < buffers_idx then begin
          let dx, dy, dz = Pattern.offset_of_cell i in
          Printf.sprintf "pat(%d,%d,%d)" dx dy dz
        end
        else if i = buffers_idx then "buffers"
        else if i = dtype_idx then "dtype"
        else if i < tuning_base then [| "size_x"; "size_y"; "size_z" |].(i - size_base)
        else [| "t:bx"; "t:by"; "t:bz"; "t:unroll"; "t:chunk" |].(i - tuning_base))
  in
  match mode with
  | Canonical -> base
  | Extended ->
    let bins prefix n offset =
      Array.init n (fun i -> Printf.sprintf "%s_bin%d" prefix (i + offset))
    in
    Array.concat
      [
        base;
        continuous_names;
        bins "bx" block_bins 0;
        bins "by" block_bins 0;
        bins "bz" block_bins 0;
        bins "u" unroll_bins 0;
        bins "c" chunk_bins 0;
        bins "ws" ws_bins 10;
        bins "reuse" reuse_bins 10;
        bins "tiles" count_bins 0;
        bins "chunks" count_bins 0;
      ]

let tuning_feature_indices = function
  | Canonical -> Array.init 5 (fun i -> tuning_base + i)
  | Extended ->
    Array.append
      (Array.init 5 (fun i -> tuning_base + i))
      (Array.init (extended_dim - canonical_dim) (fun i -> canonical_dim + i))

(* ---- instance embedding ----

   An instance-level aggregate of the feature map: the mean of
   [φ(inst, t)] over a small deterministic probe set of tunings drawn
   from the predefined grid (lo/mid/hi of each block axis, lo/hi of
   unroll and chunk), L2-normalized.  Canonical instance features pass
   through unchanged (they are constant across probes); the extended
   interaction terms contribute how the instance modulates the tuning
   axes, which is exactly the similarity signal near-miss reuse needs.
   Purely serial and built from the same compiled encoder as ranking,
   so the vector is identical across pool sizes and repeat calls. *)

let embedding_probes ~dims =
  let a = Tuning.predefined_axes ~dims in
  let picks ax k =
    let n = Array.length ax in
    (if n <= k || k < 2 then List.init (min n k) Fun.id
     else List.init k (fun i -> i * (n - 1) / (k - 1)))
    |> List.sort_uniq compare
    |> List.map (fun i -> ax.(i))
  in
  let bxs = picks a.Tuning.ax_bx 3
  and bys = picks a.Tuning.ax_by 3
  and bzs = picks a.Tuning.ax_bz 3
  and us = picks a.Tuning.ax_u 2
  and cs = picks a.Tuning.ax_c 2 in
  List.concat_map
    (fun bx ->
      List.concat_map
        (fun by ->
          List.concat_map
            (fun bz ->
              List.concat_map
                (fun u -> List.map (fun c -> { Tuning.bx; by; bz; u; c }) cs)
                us)
            bzs)
        bys)
    bxs

let embedding mode inst =
  let enc = compile mode inst in
  let dims = Kernel.dims (Instance.kernel inst) in
  let probes = embedding_probes ~dims in
  let d = dim mode in
  let acc = Array.make d 0. in
  let m = max_nnz enc in
  let idx = Array.make m 0 and v = Array.make m 0. in
  List.iter
    (fun tn ->
      let n = encode_into enc tn idx v in
      for j = 0 to n - 1 do
        acc.(idx.(j)) <- acc.(idx.(j)) +. v.(j)
      done)
    probes;
  let np = float_of_int (List.length probes) in
  for j = 0 to d - 1 do
    acc.(j) <- acc.(j) /. np
  done;
  let norm = sqrt (Array.fold_left (fun s x -> s +. (x *. x)) 0. acc) in
  if norm > 0. then
    for j = 0 to d - 1 do
      acc.(j) <- acc.(j) /. norm
    done;
  acc

let mode_to_string = function Canonical -> "canonical" | Extended -> "extended"

(* The schema hash pins everything a cached encoding depends on: the
   mode, the dimension and the identity of every feature index.  Any
   change to the feature layout changes the hash, so persisted encoded
   features keyed by it can never be silently reinterpreted. *)
let schema_hash mode =
  let b = Buffer.create 4096 in
  Buffer.add_string b (mode_to_string mode);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int (dim mode));
  Array.iter
    (fun n ->
      Buffer.add_char b '|';
      Buffer.add_string b n)
    (names mode);
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16

let mode_of_string s =
  match String.lowercase_ascii s with
  | "canonical" -> Canonical
  | "extended" -> Extended
  | other -> invalid_arg ("Features.mode_of_string: " ^ other)
