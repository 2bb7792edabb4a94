open Sorl_stencil

type slot = { mutable outcome : (Tuning.t array, exn) result option }

type cached_encoder = { enc : Features.compiled; mutable last_used : int }

type t = {
  m : Mutex.t;
  done_ : Condition.t;
  in_flight : (string, slot) Hashtbl.t;
      (** key: "<generation>/<instance>#<k>" *)
  encoders : (string, cached_encoder) Hashtbl.t;  (** key: "<mode>/<instance>" *)
  encoder_cache : int;
  mutable tick : int;  (** LRU clock *)
  mutable arena : Sorl.Autotuner.scratch list;
      (** free list of top-k working memory; one entry per worker that
          ever ranked cold concurrently *)
  mutable leaders : int;
  mutable followers : int;
  mutable encoder_hits : int;
  mutable encoder_misses : int;
  mutable arena_hits : int;
  mutable arena_misses : int;
  mutable cubes_pruned : int;
  mutable cands_pruned : int;
  mutable cands_scored : int;
}

let create ?(encoder_cache = 32) () =
  if encoder_cache < 1 then invalid_arg "Batcher.create: encoder_cache must be >= 1";
  {
    m = Mutex.create ();
    done_ = Condition.create ();
    in_flight = Hashtbl.create 16;
    encoders = Hashtbl.create 16;
    encoder_cache;
    tick = 0;
    arena = [];
    leaders = 0;
    followers = 0;
    encoder_hits = 0;
    encoder_misses = 0;
    arena_hits = 0;
    arena_misses = 0;
    cubes_pruned = 0;
    cands_pruned = 0;
    cands_scored = 0;
  }

(* Caller holds [t.m]. *)
let get_encoder t mode inst =
  let key = Features.mode_to_string mode ^ "/" ^ Instance.name inst in
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.encoders key with
  | Some c ->
    c.last_used <- t.tick;
    t.encoder_hits <- t.encoder_hits + 1;
    c.enc
  | None ->
    t.encoder_misses <- t.encoder_misses + 1;
    if Hashtbl.length t.encoders >= t.encoder_cache then begin
      (* Evict the least recently used entry; the cache is small
         (default 32), so a linear scan beats maintaining a heap. *)
      let victim = ref None in
      Hashtbl.iter
        (fun k c ->
          match !victim with
          | Some (_, age) when age <= c.last_used -> ()
          | _ -> victim := Some (k, c.last_used))
        t.encoders;
      match !victim with Some (k, _) -> Hashtbl.remove t.encoders k | None -> ()
    end;
    let enc = Features.compile mode inst in
    Hashtbl.replace t.encoders key { enc; last_used = t.tick };
    enc

let encoder t mode inst = Mutex.protect t.m (fun () -> get_encoder t mode inst)

(* Caller holds [t.m].  Pop a scratch from the arena or make a fresh
   one; steady state is all hits — the free list grows only while more
   workers rank cold simultaneously than ever before. *)
let take_scratch t =
  match t.arena with
  | s :: rest ->
    t.arena <- rest;
    t.arena_hits <- t.arena_hits + 1;
    s
  | [] ->
    t.arena_misses <- t.arena_misses + 1;
    Sorl.Autotuner.scratch ()

(* Leader/follower coalescing: the first arrival under [key] computes
   (outside the lock), everyone else waits on the condition variable
   and shares the result. *)
let coalesce t ~key ~compute =
  Mutex.lock t.m;
  match Hashtbl.find_opt t.in_flight key with
  | Some slot ->
    t.followers <- t.followers + 1;
    let rec wait () =
      match slot.outcome with
      | None ->
        Condition.wait t.done_ t.m;
        wait ()
      | Some outcome -> outcome
    in
    let outcome = wait () in
    Mutex.unlock t.m;
    (match outcome with Ok r -> (r, true) | Error e -> raise e)
  | None ->
    t.leaders <- t.leaders + 1;
    let slot = { outcome = None } in
    Hashtbl.replace t.in_flight key slot;
    Mutex.unlock t.m;
    (* [compute] re-takes the lock for its own bookkeeping (encoder
       cache, scratch arena), so it must run unlocked; it returns
       [Error] rather than raising so the slot below is always
       resolved and no follower waits forever. *)
    let outcome = (try compute () with e -> Error e) in
    Mutex.lock t.m;
    slot.outcome <- Some outcome;
    Hashtbl.remove t.in_flight key;
    Condition.broadcast t.done_;
    Mutex.unlock t.m;
    (match outcome with Ok r -> (r, false) | Error e -> raise e)

let rank_top t ?incumbents ~generation ~tuner ~inst ~k () =
  (* [k] is part of the key: a top-1 and a top-10 for the same
     instance are different computations (prefixes of the same rank,
     but the smaller one prunes more), so they never coalesce onto
     each other.  [incumbents] is {e not} part of the key: the result
     is identical with or without it (it only tightens the pruning
     bound), so coalescing across seeded and unseeded callers is
     safe. *)
  let key = Printf.sprintf "%d/%s#%d" generation (Instance.name inst) k in
  coalesce t ~key ~compute:(fun () ->
      Mutex.lock t.m;
      let enc = get_encoder t (Sorl.Autotuner.feature_mode tuner) inst in
      let scratch = take_scratch t in
      Mutex.unlock t.m;
      let dims = Kernel.dims (Instance.kernel inst) in
      let outcome =
        match Sorl.Autotuner.top_k_pruned ~scratch ?incumbents tuner enc ~dims ~k with
        | r -> Ok r
        | exception e -> Error e
      in
      Mutex.lock t.m;
      t.arena <- scratch :: t.arena;
      let outcome =
        match outcome with
        | Ok (r, stats) ->
          t.cubes_pruned <- t.cubes_pruned + stats.Sorl.Autotuner.cubes_pruned;
          t.cands_pruned <- t.cands_pruned + stats.Sorl.Autotuner.pruned;
          t.cands_scored <- t.cands_scored + stats.Sorl.Autotuner.scored;
          Ok r
        | Error e -> Error e
      in
      Mutex.unlock t.m;
      outcome)

type stats = {
  leaders : int;
  followers : int;
  encoder_hits : int;
  encoder_misses : int;
  arena_hits : int;
  arena_misses : int;
  cubes_pruned : int;
  cands_pruned : int;
  cands_scored : int;
}

let stats t =
  Mutex.lock t.m;
  let s =
    {
      leaders = t.leaders;
      followers = t.followers;
      encoder_hits = t.encoder_hits;
      encoder_misses = t.encoder_misses;
      arena_hits = t.arena_hits;
      arena_misses = t.arena_misses;
      cubes_pruned = t.cubes_pruned;
      cands_pruned = t.cands_pruned;
      cands_scored = t.cands_scored;
    }
  in
  Mutex.unlock t.m;
  s
