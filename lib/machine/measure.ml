open Sorl_stencil

module Lru = struct
  (* Bounded least-recently-used map from int keys to floats: a
     Hashtbl into an intrusive doubly-linked list ordered by recency.
     Every operation is O(1) and runs under [lock], so one cache can be
     shared by domains evaluating configurations in parallel. *)
  type node = {
    key : int;
    value : float;
    mutable prev : node option;
    mutable next : node option;
  }

  type t = {
    capacity : int;
    tbl : (int, node) Hashtbl.t;
    mutable head : node option; (* most recently used *)
    mutable tail : node option; (* least recently used *)
    lock : Mutex.t;
  }

  let create capacity =
    {
      capacity;
      tbl = Hashtbl.create (min capacity 1024);
      head = None;
      tail = None;
      lock = Mutex.create ();
    }

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.head;
    (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let find_opt t key =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | None -> None
        | Some n ->
          unlink t n;
          push_front t n;
          Some n.value)

  (* Insert [value] under [key] and return the value the cache now
     holds.  When a concurrent domain already inserted the key, the
     first value wins and is returned, so every caller of a given key
     observes one consistent runtime. *)
  let add t key value =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some n ->
          unlink t n;
          push_front t n;
          n.value
        | None ->
          let n = { key; value; prev = None; next = None } in
          Hashtbl.replace t.tbl key n;
          push_front t n;
          if Hashtbl.length t.tbl > t.capacity then
            (match t.tail with
            | Some lru ->
              unlink t lru;
              Hashtbl.remove t.tbl lru.key
            | None -> ());
          value)
end

type backend =
  | Model of { machine : Machine_desc.t; noise_amplitude : float; seed : int }
  | Wallclock of { repeats : int }

type t = {
  backend : backend;
  evaluations : int Atomic.t;
  cache : Lru.t option;
  cache_hits : int Atomic.t;
}

let default_cache_capacity = 8192

let env_cache_capacity () =
  let parse v =
    match int_of_string_opt (String.trim v) with Some n when n >= 0 -> Some n | _ -> None
  in
  Option.bind (Sys.getenv_opt "SORL_MEASURE_CACHE") parse

let make_cache = function
  | Some n ->
    if n < 0 then invalid_arg "Measure: cache capacity must be >= 0";
    if n = 0 then None else Some (Lru.create n)
  | None -> (
    match env_cache_capacity () with
    | Some 0 -> None
    | Some n -> Some (Lru.create n)
    | None -> Some (Lru.create default_cache_capacity))

let make backend cache_capacity =
  {
    backend;
    evaluations = Atomic.make 0;
    cache = make_cache cache_capacity;
    cache_hits = Atomic.make 0;
  }

let model ?(noise_amplitude = 0.02) ?(seed = 42) ?cache_capacity machine =
  if noise_amplitude < 0. then invalid_arg "Measure.model: negative noise amplitude";
  make (Model { machine; noise_amplitude; seed }) cache_capacity

let wallclock ?(repeats = 3) ?cache_capacity () =
  if repeats < 1 then invalid_arg "Measure.wallclock: repeats must be >= 1";
  make (Wallclock { repeats }) cache_capacity

(* Stable key for a configuration, independent of evaluation order.
   [Hashtbl.hash] on the whole tuple only keeps ~30 bits and readily
   collides across the 8640-point predefined sets, which would glue the
   "measurement noise" of unrelated configurations together.  Instead
   chain each raw field through a full-avalanche 64-bit mixer. *)
let config_key inst tn =
  let mix h v = Sorl_util.Rng.mix64 (Int64.logxor h (Int64.of_int v)) in
  let h = Int64.of_int 0x5bd1e995 in
  let h = mix h (Hashtbl.hash (Instance.name inst)) in
  let h = mix h tn.Tuning.bx in
  let h = mix h tn.Tuning.by in
  let h = mix h tn.Tuning.bz in
  let h = mix h tn.Tuning.u in
  let h = mix h tn.Tuning.c in
  Int64.to_int h land max_int

let eval_counter = Sorl_util.Telemetry.counter "measure.evaluations"
let hits_counter = Sorl_util.Telemetry.counter "measure.cache_hits"

let measured t inst tn =
  match t.backend with
  | Model { machine; noise_amplitude; seed } ->
    let base = Cost_model.runtime_of machine inst tn in
    if noise_amplitude = 0. then base
    else begin
      let u = Sorl_util.Rng.hash_noise ~seed ~key:(config_key inst tn) in
      base *. (1. +. (noise_amplitude *. ((2. *. u) -. 1.)))
    end
  | Wallclock { repeats } ->
    let v = Sorl_codegen.Variant.compile inst tn in
    let inputs, output = Sorl_codegen.Interp.make_grids inst in
    let samples =
      Array.init repeats (fun _ ->
          Sorl_util.Timer.time_unit (fun () ->
              Sorl_codegen.Interp.run v ~inputs ~output))
    in
    Sorl_util.Stats.median samples

let runtime t inst tn =
  Atomic.incr t.evaluations;
  Sorl_util.Telemetry.incr eval_counter;
  match t.cache with
  | None -> measured t inst tn
  | Some cache -> (
    let key = config_key inst tn in
    match Lru.find_opt cache key with
    | Some v ->
      Atomic.incr t.cache_hits;
      Sorl_util.Telemetry.incr hits_counter;
      v
    | None ->
      (* Measured outside the lock: parallel domains may briefly
         duplicate work on a fresh key, but [Lru.add] hands everyone
         the first value inserted. *)
      Lru.add cache key (measured t inst tn))

let gflops t inst tn = Instance.total_flops inst /. runtime t inst tn /. 1e9
let evaluations t = Atomic.get t.evaluations
let cache_hits t = Atomic.get t.cache_hits
let cache_capacity t = match t.cache with None -> 0 | Some c -> c.Lru.capacity

let reset_evaluations t =
  Atomic.set t.evaluations 0;
  Atomic.set t.cache_hits 0

let descr t =
  match t.backend with
  | Model { machine; noise_amplitude; _ } ->
    Printf.sprintf "cost-model(%s, noise %.1f%%)" machine.Machine_desc.name
      (100. *. noise_amplitude)
  | Wallclock { repeats } -> Printf.sprintf "wallclock(interpreter, %d repeats)" repeats
