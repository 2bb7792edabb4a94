(* Span recorder for the traced run.  The benchmark wraps each call it
   makes into a layer's public function in [span]; nothing inside the
   program is instrumented.  Spans stay in memory (one mutex-guarded
   list) and are written out once, at exit.  Parentage is per domain:
   each domain keeps its own stack of open spans, so the two load
   domains never adopt each other's spans. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id shared by the spans of one request, -1 if none *)
  t0 : float;
  t1 : float;
}

let enabled = Atomic.make false
let next_req = Atomic.make 0

(* A fresh request id, unique across domains. *)
let fresh_req () = Atomic.fetch_and_add next_req 1
let lock = Mutex.create ()
let next_id = Atomic.make 0
let recorded : span list ref = ref []
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4

(* Monotonic nanosecond clock, in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let stack_of d = Option.value ~default:[] (Hashtbl.find_opt stacks d)

let span ?(req = -1) name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let d = (Domain.self () :> int) in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent =
      Mutex.protect lock (fun () ->
          let st = stack_of d in
          Hashtbl.replace stacks d (id :: st);
          match st with p :: _ -> p | [] -> -1)
    in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      Mutex.protect lock (fun () ->
          (match stack_of d with
          | _ :: rest -> Hashtbl.replace stacks d rest
          | [] -> ());
          recorded := { id; name; parent; req; t0; t1 } :: !recorded)
    in
    Fun.protect ~finally:finish f
  end

(* Record an interval measured elsewhere (e.g. a round trip whose
   start and end straddle a blocking read) as a root span. *)
let record ?(req = -1) name ~t0 ~t1 =
  if Atomic.get enabled then begin
    let id = Atomic.fetch_and_add next_id 1 in
    Mutex.protect lock (fun () ->
        recorded := { id; name; parent = -1; req; t0; t1 } :: !recorded)
  end

let spans () = Mutex.protect lock (fun () -> List.rev !recorded)

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None)
    (spans ())
  |> Array.of_list

(* Self time of every span: its duration minus the part its children
   cover (children of one span never overlap: they run on the same
   domain). *)
type summary = { sname : string; count : int; total_s : float; self_s : float }

let summarize () =
  let all = spans () in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    all;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
      let c, t, sf = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (c + 1, t +. d, sf +. self))
    all;
  Hashtbl.fold
    (fun sname (count, total_s, self_s) acc -> { sname; count; total_s; self_s } :: acc)
    by_name []
  |> List.sort (fun a b -> compare b.total_s a.total_s)

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start\":%.9f,\"end\":%.9f}\n"
            s.id s.name s.parent s.req s.t0 s.t1)
        (spans ()))
