(** Feature encoding (§III).

    A stencil execution [(k, s, t)] is summarized in a sparse feature
    vector with every component normalized to [\[0, 1\]]:

    - cells 0..342: the bounded-offset 7×7×7 pattern matrix; the cell of
      offset [o] holds (number of buffers accessing [o]) / (number of
      buffers), so single-buffer kernels store the paper's binary mask;
    - buffer count (scaled by the maximum of 4);
    - data type (0 float, 1 double);
    - input size as [log2 s / log2 2048] per axis;
    - tuning parameters: [log2 b / log2 1024] per block axis, [u / 8],
      [log2 c / log2 256].

    Two modes are provided.  [Canonical] is the literal encoding of
    §III: a concatenation of instance and tuning features.  Because the
    rank model is linear and pairs are always built within one instance,
    instance features cancel in every pairwise constraint, so a
    canonical model orders tuning vectors identically for every
    instance.  [Extended] therefore appends hardware-independent
    interaction features (tile volume, working-set size, halo fraction,
    tile/grid ratios, unroll pressure, tile-count terms) that couple the
    instance and the tuning vector while remaining purely static; this
    is what lets the linear ranker specialize per stencil, and is the
    default of the experiment drivers.

    The extended block has two parts: continuous interaction terms
    (tile volume, working-set size, halo fraction, grid-coverage
    ratios, SIMD remainder, unroll pressure, tile/chunk counts) and
    {e one-hot bin} features — log2 bins of each tuning parameter and
    of the derived working-set / streaming-reuse sizes.  The bins give
    the linear model a piecewise-constant basis: block-size preference
    is not monotone (too small starves SIMD, too large spills the
    cache), which no weighting of monotone scalars can express, while
    "bx ∈ [32,128) good, working set past the L2 scale bad" is exactly
    a linear function of bins.  The canonical-vs-extended gap is
    quantified by the ablation bench. *)

type mode = Canonical | Extended

val dim : mode -> int
(** Feature-space dimension (353 canonical, 480 extended). *)

val encoder_entries : mode -> Instance.t -> Tuning.t -> (int * float) list
(** The seed reference encoder: [encoder_entries mode inst] returns a
    closure producing the raw (index, value) entry list of a tuning
    (possibly with duplicate indices, which sum).  With
    {!Sorl_svmrank.Model.entry_scorer} and
    {!Sorl_svmrank.Model.sort_by_score} it is the oracle the ranking
    parity tests and the rank-throughput bench's seed row compare the
    compiled path against; production code encodes through
    {!compile}. *)

(** {1 Compiled fast path}

    [compile] materializes the instance-dependent entries once into
    flat sorted arrays; [encode_into] then writes a full encoding into
    a caller-owned scratch buffer with {e zero} per-candidate
    allocation (the tuning-dependent entries are emitted in increasing
    index order above the instance block, so the filled prefix directly
    satisfies the sorted-unique-nonzero invariant of
    {!Sorl_util.Sparse.of_sorted}).  Entry values are computed by the
    same functions as {!encoder_entries}, so every compiled encoding is
    bit-identical to the seed entry list it replaces.  This is the one
    production encoder: training, embeddings and the encoded-feature
    caches go through it, and ranking scores from its grid tables
    (below), which reproduce its scores bit for bit. *)

type compiled
(** Per-instance compiled encoder. *)

val compile : mode -> Instance.t -> compiled
val compiled_mode : compiled -> mode
val compiled_dim : compiled -> int

val max_nnz : compiled -> int
(** Upper bound on entries per encoding; the minimum scratch size for
    {!encode_into}. *)

val encode_into : compiled -> Tuning.t -> int array -> float array -> int
(** [encode_into c t idx v] writes the encoding of [t] into
    [idx.(0..n-1)]/[v.(0..n-1)] and returns [n].  The scratch arrays
    must hold at least {!max_nnz} cells; indices come out strictly
    increasing with no explicit zeros.  Allocation-free. *)

val encode_at : compiled -> Tuning.t -> int array -> float array -> int -> int
(** [encode_at c t idx v pos] writes one encoding starting at position
    [pos] and returns the end position — {!encode_into} at an offset,
    for packing many encodings into one flat block (the caller
    guarantees {!max_nnz} cells of headroom above [pos]).  Each packed
    row is scored with {!Sorl_svmrank.Model.range_scorer}. *)

val encode : mode -> Instance.t -> Tuning.t -> Sorl_util.Sparse.t
(** [encode mode inst] compiles the instance once and returns the
    per-instance encoder: each call materializes one {!encode_into}
    result as a sparse vector (all values in [\[0,1\]]).  The closure
    is reentrant.  Bit-identical to [Sparse.of_list] over
    {!encoder_entries}. *)

(** {1 Scoring the grid from tables}

    Because the rank model is linear, [w·φ(inst, t)] is the instance
    part plus one weighted term per tuning-dependent feature, and each
    feature value depends on one tuning axis, on the block triple
    [(bx, by, bz)] (a {e cube}), or on the cube and the chunk size.  A
    compiled encoder therefore carries weight-free tables of those
    values over a tuning grid, built by the first {!bounder} call for
    that grid and kept for every later one (published atomically, so
    racing first calls build equal tables and either wins).  They hold
    no weights, so an encoder cache keeps them across model
    generations.  A {!bounder} applies one weight vector: it scores a
    cube's candidates in a few additions each ({!score_cube}),
    bit-identical to {!encode_into} plus the range scorer, and bounds
    a cube's scores from below ({!cube_bound}) for branch-and-bound
    ranking.  Cubes are numbered row-major over (bx, by, bz) and a
    cube's candidates row-major over (u, c): the flat order of
    {!Tuning.predefined_set}. *)

type bounder

val bounder :
  compiled ->
  w:float array ->
  bx:int array ->
  by:int array ->
  bz:int array ->
  u:int array ->
  c:int array ->
  bounder
(** [bounder enc ~w ~bx ~by ~bz ~u ~c] is the weighted view of [enc]'s
    tables for the grid spanned by the given strictly-ascending axis
    value arrays (use {!Tuning.predefined_axes}) under dense weights
    [w] (length must equal [compiled_dim enc] — checked).  [w] is
    shared, not copied.  Raises [Invalid_argument] on dimension
    mismatch or a non-ascending or empty axis. *)

val cube_bound : bounder -> int -> float
(** [cube_bound b cube] is a lower bound on the score of every
    candidate in the cube: its block-fixed terms plus the smallest
    unroll terms plus the smallest chunk terms, minus a relative
    epsilon absorbing summation order.  Soundness is what pruning
    relies on; tightness only changes how much gets pruned. *)

val score_cube : bounder -> int -> float array -> int -> unit
(** [score_cube b cube out pos] writes the scores of the cube's
    [nu × nc] candidates to [out.(pos)] onward, in (u, c) row-major
    order.  Each is bit-identical to {!encode_into} followed by
    [Model.range_scorer]: the same products added in the same
    increasing feature order, a skipped zero entry adding [-0.].
    Allocation-free; concurrent calls on one bounder are safe for
    disjoint outputs. *)

val embedding : mode -> Instance.t -> float array
(** [embedding mode inst] is a dense, L2-normalized instance vector of
    length [dim mode]: the mean of [φ(inst, t)] over a small
    deterministic probe set of tunings from the predefined grid
    (lo/mid/hi per block axis, lo/hi of unroll and chunk).  Built from
    the same compiled encoder as ranking, fully serial, so the result
    is bit-identical across calls and pool sizes.  Cosine distance
    between embeddings is the similarity measure the near-miss reuse
    layer thresholds on. *)

val names : mode -> string array
(** Human-readable name per feature index (pattern cells are named by
    their offset). *)

val tuning_feature_indices : mode -> int array
(** Indices whose value depends on the tuning vector (the only ones that
    matter inside a pairwise constraint). *)

val mode_to_string : mode -> string
val mode_of_string : string -> mode

val schema_hash : mode -> string
(** 16-hex-character digest of the feature schema (mode, dimension and
    every feature name).  Persisted encoded-feature caches are keyed by
    it, so any change to the feature layout invalidates them instead of
    silently reinterpreting stale indices. *)
