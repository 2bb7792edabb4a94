(** Generation-keyed LRU of pre-encoded protocol replies.

    The learned model [r(q,t) = w . phi(q,t)] is deterministic: under
    one model generation, the reply to a given [rank]/[tune] request
    never changes.  The server therefore caches the {e encoded response
    string} — not the ranked list — keyed by
    [(generation, verb/top, benchmark)], so a hot request is one
    hashtable lookup plus one socket write.  Invalidation is free:
    every successful reload bumps the generation, which is part of the
    key, so entries of a retired generation can never be served again
    and simply age out of the LRU.

    Capacity comes from the [SORL_SERVE_CACHE] environment variable
    when set (0 disables the cache entirely: {!find} always misses,
    {!put} drops), else defaults to {!default_capacity}.  All
    operations are O(1) under an internal mutex, so one cache is shared
    by every worker domain.

    The {!hits} / {!misses} / {!evictions} accessors are the only
    counters; the [stats] protocol reply surfaces them. *)

type t

val default_capacity : int
(** 1024 entries — replies are short (a few hundred bytes), so the
    default comfortably holds every benchmark at several generations. *)

val create : ?capacity:int -> unit -> t
(** [create ()] sizes the cache from [SORL_SERVE_CACHE] (falling back
    to {!default_capacity}); [~capacity] overrides both.  Raises
    [Invalid_argument] on a negative capacity. *)

val key : generation:int -> verb:string -> benchmark:string -> string
(** The canonical cache key.  [verb] folds in every request parameter
    that shapes the reply (["tune"], ["rank:3"], ...). *)

val find : t -> string -> string option
(** Look up an encoded reply, promoting the entry to most recently
    used.  Counts a hit or a miss; a disabled cache (capacity 0)
    returns [None] without counting. *)

val put : t -> string -> string -> unit
(** Insert an encoded reply, evicting the least recently used entry at
    capacity.  If the key is already present the existing value is
    kept (both are necessarily identical — replies are deterministic
    per key).  No-op when disabled. *)

val capacity : t -> int
val length : t -> int
val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Entries pushed out by the capacity cap so far (refreshing an
    existing key is not an eviction). *)

val entries_by_generation : t -> (int * int) list
(** Resident entry count per model generation (parsed from the key
    prefix), ascending by generation — shows retired generations
    draining out of the LRU after a reload.  O(entries). *)
