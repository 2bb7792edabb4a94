(* Expected replies.  Every rank/tune reply is byte-compared against
   Protocol.encode_response of an in-process Autotuner.top_k on the
   model generation the server was serving; the tables are built at
   set-up (and after each promote), so checking a reply during the
   timed phase is an array lookup and a string compare. *)

open Sorl_stencil

(* One request the load generator can send. *)
type shape = { line : string; inst : Instance.t; top : int option  (** [None] = tune *) }

let shapes ~tops =
  List.concat_map
    (fun inst ->
      let benchmark = Instance.name inst in
      let tune =
        { line = Sorl_serve.Protocol.encode_request (Tune { benchmark; approx_ok = false }); inst; top = None }
      in
      tune
      :: List.map
           (fun top ->
             {
               line =
                 Sorl_serve.Protocol.encode_request (Rank { benchmark; top; approx_ok = false });
               inst;
               top = Some top;
             })
           tops)
    Benchmarks.instances
  |> Array.of_list

let grid_size inst = Tuning.predefined_size ~dims:(Kernel.dims (Instance.kernel inst))

(* The reply the server must send for [shape] given the first
   [top] tunings of the full rank. *)
let response_of shape ranked =
  let benchmark = Instance.name shape.inst in
  match shape.top with
  | None -> Sorl_serve.Protocol.Tuned { benchmark; tuning = ranked.(0); approx = false }
  | Some top ->
    Sorl_serve.Protocol.Ranked
      {
        benchmark;
        total = grid_size shape.inst;
        tunings = Array.to_list (Array.sub ranked 0 (min top (Array.length ranked)));
        approx = false;
      }

let top_of shape = Option.value ~default:1 shape.top

(* Expected responses for every shape under [tuner]: one top-k per
   benchmark at the largest [top] asked for, since top-k is a prefix
   of the full rank. *)
let responses tuner shapes =
  let kmax = Hashtbl.create 32 in
  Array.iter
    (fun s ->
      let n = Instance.name s.inst in
      Hashtbl.replace kmax n (max (top_of s) (Option.value ~default:1 (Hashtbl.find_opt kmax n))))
    shapes;
  let ranked = Hashtbl.create 32 in
  Array.map
    (fun s ->
      let n = Instance.name s.inst in
      let r =
        match Hashtbl.find_opt ranked n with
        | Some r -> r
        | None ->
          let r =
            Trace.span "autotuner.top_k" (fun () ->
                Sorl.Autotuner.top_k tuner s.inst ~k:(Hashtbl.find kmax n))
          in
          Hashtbl.add ranked n r;
          r
      in
      response_of s r)
    shapes

type table = { responses : Sorl_serve.Protocol.response array; replies : string array }

let table tuner shapes =
  let responses = responses tuner shapes in
  { responses; replies = Array.map Sorl_serve.Protocol.encode_response responses }

(* Model generations a reply may legitimately come from: a generation
   is valid from the moment its promote request is sent until the
   reply to the next promote has arrived, so a read in flight across
   a promote may carry either. *)
type gen = { tbl : table; from_t : float; mutable until_t : float }
type t = { lock : Mutex.t; mutable gens : gen list }

let create tbl = { lock = Mutex.create (); gens = [ { tbl; from_t = 0.; until_t = infinity } ] }

let accepts t i reply ~sent ~recv =
  Mutex.protect t.lock (fun () ->
      List.exists
        (fun g -> g.from_t <= recv && g.until_t >= sent && String.equal g.tbl.replies.(i) reply)
        t.gens)

(* A promote is about to be sent: the new table becomes valid now. *)
let begin_switch t tbl ~at =
  Mutex.protect t.lock (fun () -> t.gens <- { tbl; from_t = at; until_t = infinity } :: t.gens)

(* The promote reply arrived: [installed] retires every older
   generation, otherwise the pending one is dropped. *)
let end_switch t ~installed ~at =
  Mutex.protect t.lock (fun () ->
      match t.gens with
      | _ :: rest when installed ->
        List.iter (fun o -> if o.until_t > at then o.until_t <- at) rest
      | _ :: rest -> t.gens <- rest
      | [] -> ())
