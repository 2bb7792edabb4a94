(* Intrusive doubly-linked LRU over a hashtable, the same shape as the
   measurement memo in Sorl_machine.Measure: every operation is O(1)
   and runs under [lock], so all worker domains share one cache. *)

type node = {
  key : string;
  value : string;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  capacity : int;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  lock : Mutex.t;
}

let hits_counter = Sorl_util.Telemetry.counter "serve.result_cache_hits"
let misses_counter = Sorl_util.Telemetry.counter "serve.result_cache_misses"
let evictions_counter = Sorl_util.Telemetry.counter "serve.result_cache_evictions"

let default_capacity = 1024

let env_capacity () =
  let parse v = match int_of_string_opt (String.trim v) with
    | Some n when n >= 0 -> Some n
    | _ -> None
  in
  Option.bind (Sys.getenv_opt "SORL_SERVE_CACHE") parse

let create ?capacity () =
  let capacity =
    match capacity with
    | Some n ->
      if n < 0 then invalid_arg "Result_cache.create: capacity must be >= 0";
      n
    | None -> ( match env_capacity () with Some n -> n | None -> default_capacity)
  in
  {
    capacity;
    tbl = Hashtbl.create (min (max capacity 1) 1024);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    lock = Mutex.create ();
  }

let key ~generation ~verb ~benchmark =
  Printf.sprintf "%d/%s/%s" generation verb benchmark

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key =
  if t.capacity = 0 then None
  else
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | None ->
          t.misses <- t.misses + 1;
          Sorl_util.Telemetry.incr misses_counter;
          None
        | Some n ->
          unlink t n;
          push_front t n;
          t.hits <- t.hits + 1;
          Sorl_util.Telemetry.incr hits_counter;
          Some n.value)

let put t key value =
  if t.capacity > 0 then
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some n ->
          (* Replies are deterministic per key, so the resident value is
             necessarily equal; just refresh its recency. *)
          unlink t n;
          push_front t n
        | None ->
          if Hashtbl.length t.tbl >= t.capacity then (
            match t.tail with
            | Some lru ->
              unlink t lru;
              Hashtbl.remove t.tbl lru.key;
              t.evictions <- t.evictions + 1;
              Sorl_util.Telemetry.incr evictions_counter
            | None -> ());
          let n = { key; value; prev = None; next = None } in
          Hashtbl.replace t.tbl key n;
          push_front t n)

let capacity t = t.capacity
let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.tbl)
let hits t = Mutex.protect t.lock (fun () -> t.hits)
let misses t = Mutex.protect t.lock (fun () -> t.misses)
let evictions t = Mutex.protect t.lock (fun () -> t.evictions)

(* The generation is the key prefix before the first '/', so occupancy
   per generation falls out of one pass over the table — cheap enough
   to answer a stats request, and it shows reload hygiene at a glance
   (retired generations draining out of the LRU). *)
let entries_by_generation t =
  Mutex.protect t.lock (fun () ->
      let counts = Hashtbl.create 8 in
      Hashtbl.iter
        (fun key _ ->
          let gen =
            match String.index_opt key '/' with
            | Some i -> int_of_string_opt (String.sub key 0 i)
            | None -> None
          in
          match gen with
          | Some g ->
            Hashtbl.replace counts g (1 + Option.value ~default:0 (Hashtbl.find_opt counts g))
          | None -> ())
        t.tbl;
      Hashtbl.fold (fun g n acc -> (g, n) :: acc) counts []
      |> List.sort (fun (a, _) (b, _) -> compare a b))
