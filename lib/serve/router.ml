(* One downstream shard as the router sees it.  [m] serializes use of
   the persistent pipelined connection; a rolling reload drains the
   shard by taking [m] after flipping [draining], so in-flight trains
   finish before the reload goes down the same wire and new traffic
   routes past it meanwhile. *)
type shard = {
  sname : string;
  saddr : Protocol.address;
  m : Mutex.t;
  mutable conn : Client.t option;  (** under [m] *)
  draining : bool Atomic.t;
  routed : int Atomic.t;  (** rank/tune successfully answered by this shard *)
  reconnects : int Atomic.t;
  failures : int Atomic.t;
}

type t = {
  address : Protocol.address;
  shards : shard array;
  ring : Ring.t;
  workers : int;
  conn_timeout_s : float;
  connect_retry_s : float;
  listen_fd : Unix.file_descr;
  queue : Reactor.batch Sorl_util.Bqueue.t;
  stopping : bool Atomic.t;
  reload_m : Mutex.t;  (** serializes rolling reloads fleet-wide *)
  started_at : float;
  requests : int Atomic.t;
  forwarded : int Atomic.t;
  errors : int Atomic.t;
  fanouts : int Atomic.t;
  reloads : int Atomic.t;
  connections : int Atomic.t;
  busy_rejections : int Atomic.t;
  pipelined : int Atomic.t;
  mutable reactor : Reactor.t option;
  mutable reactor_domain : unit Domain.t option;
  mutable worker_domains : unit Domain.t list;
  mutable joined : bool;
}

let err code message = Protocol.Error { code; message }

(* ---- downstream exchanges (caller holds [s.m]) ---- *)

let connected t s =
  match s.conn with
  | Some c -> Ok c
  | None -> (
    match
      Client.connect_result ~timeout_s:t.conn_timeout_s ~retry_for_s:t.connect_retry_s
        s.saddr
    with
    | Ok c ->
      s.conn <- Some c;
      Ok c
    | Error e -> Error (Client.connect_error_to_string e))

let disconnect s =
  match s.conn with
  | Some c ->
    Client.close c;
    s.conn <- None
  | None -> ()

(* One request down the persistent connection.  A transport failure
   usually means the shard's reactor idle-timed the connection out (or
   the shard restarted), so when [retry] is set the exchange reconnects
   once and resends — safe for rank/tune/info/stats, which are
   idempotent, and disabled for reload, which is not. *)
let exchange ?(retry = true) t s req =
  let attempt () =
    match connected t s with
    | Error _ as e -> e
    | Ok c -> (
      match Client.request c req with
      | Ok _ as ok -> ok
      | Error msg ->
        disconnect s;
        Error msg)
  in
  match attempt () with
  | Ok _ as ok -> ok
  | Error _ when retry ->
    Atomic.incr s.reconnects;
    attempt ()
  | Error _ as e -> e

(* Same, for a pipelined train of idempotent requests. *)
let exchange_train t s reqs =
  let n = List.length reqs in
  let attempt () =
    match connected t s with
    | Error _ as e -> e
    | Ok c -> (
      match Client.pipeline c reqs with
      | Ok replies when List.length replies = n -> Ok replies
      | Ok _ ->
        disconnect s;
        Error "truncated reply train"
      | Error msg ->
        disconnect s;
        Error msg)
  in
  match attempt () with
  | Ok _ as ok -> ok
  | Error _ ->
    Atomic.incr s.reconnects;
    attempt ()

(* ---- routing ---- *)

let routing_key = function
  | Protocol.Rank { benchmark; _ } -> Some (benchmark ^ "/rank")
  | Protocol.Tune { benchmark; _ } -> Some (benchmark ^ "/tune")
  | Protocol.Observe { benchmark; _ } -> Some (benchmark ^ "/observe")
  | Protocol.Info | Protocol.Stats | Protocol.Reload _ | Protocol.Canary _
  | Protocol.Promote | Protocol.Shutdown ->
    None

(* Preference order for a key: ring order with draining shards demoted
   to the back.  A 1-shard fleet mid-reload therefore still routes to
   its only shard and simply waits out the drain on the shard mutex. *)
let candidates t key =
  let order = Ring.owners t.ring key in
  let live, draining =
    List.partition (fun i -> not (Atomic.get t.shards.(i).draining)) order
  in
  live @ draining

(* Forward a run of same-shard requests, falling through the
   preference order when a shard is unreachable.  Replies are parsed
   frames re-encoded; both directions are canonical, so the client
   sees the same bytes a direct server connection would produce. *)
let forward_run t cands reqs =
  let n = List.length reqs in
  let rec go last = function
    | [] ->
      let reply =
        Protocol.encode_response
          (err Protocol.Internal ("no shard reachable: " ^ last))
      in
      List.init n (fun _ -> reply)
    | i :: rest -> (
      let s = t.shards.(i) in
      match Mutex.protect s.m (fun () -> exchange_train t s reqs) with
      | Ok replies ->
        ignore (Atomic.fetch_and_add s.routed n);
        ignore (Atomic.fetch_and_add t.forwarded n);
        List.map Protocol.encode_response replies
      | Error msg ->
        Atomic.incr s.failures;
        go msg rest)
  in
  go "no shards configured" cands

(* ---- fleet verbs ---- *)

let fanout_info t =
  Atomic.incr t.fanouts;
  let shard_fields =
    Array.to_list t.shards
    |> List.concat_map (fun s ->
           match Mutex.protect s.m (fun () -> exchange t s Protocol.Info) with
           | Ok (Protocol.Info_reply kvs) ->
             ((s.sname ^ ".up"), "true")
             :: List.map (fun (k, v) -> (s.sname ^ "." ^ k, v)) kvs
           | Ok _ | Error _ -> [ ((s.sname ^ ".up"), "false") ])
  in
  Protocol.Info_reply
    ([
       ("protocol", string_of_int Protocol.version);
       ("role", "router");
       ("shards", string_of_int (Array.length t.shards));
       ("workers", string_of_int t.workers);
       ("uptime_s", string_of_int (int_of_float (Unix.gettimeofday () -. t.started_at)));
     ]
    @ shard_fields)

let fanout_stats t =
  Atomic.incr t.fanouts;
  let per_shard =
    Array.to_list t.shards
    |> List.map (fun s ->
           match Mutex.protect s.m (fun () -> exchange t s Protocol.Stats) with
           | Ok (Protocol.Stats_reply kvs) -> (s, Some kvs)
           | Ok _ | Error _ -> (s, None))
  in
  (* Sum homonymous server counters across shards, keeping first-seen
     key order so the reply reads like one big server's stats. *)
  let order = ref [] in
  let sums = Hashtbl.create 32 in
  List.iter
    (fun (_, kvs) ->
      Option.iter
        (List.iter (fun (k, v) ->
             match Hashtbl.find_opt sums k with
             | Some total -> Hashtbl.replace sums k (total + v)
             | None ->
               order := k :: !order;
               Hashtbl.replace sums k v))
        kvs)
    per_shard;
  let summed = List.rev_map (fun k -> (k, Hashtbl.find sums k)) !order in
  let tagged =
    List.concat_map
      (fun (s, kvs) ->
        match kvs with
        | None -> [ ((s.sname ^ ".up"), 0) ]
        | Some kvs ->
          ((s.sname ^ ".up"), 1)
          :: ((s.sname ^ ".routed"), Atomic.get s.routed)
          :: List.map (fun (k, v) -> (s.sname ^ "." ^ k, v)) kvs)
      per_shard
  in
  let sum_over f = Array.fold_left (fun acc s -> acc + Atomic.get (f s)) 0 t.shards in
  let router_fields =
    [
      ("router.shards", Array.length t.shards);
      ("router.requests", Atomic.get t.requests);
      ("router.forwarded", Atomic.get t.forwarded);
      ("router.errors", Atomic.get t.errors);
      ("router.fanouts", Atomic.get t.fanouts);
      ("router.reloads", Atomic.get t.reloads);
      ("router.reconnects", sum_over (fun s -> s.reconnects));
      ("router.shard_failures", sum_over (fun s -> s.failures));
      ( "router.draining",
        Array.fold_left
          (fun acc s -> acc + if Atomic.get s.draining then 1 else 0)
          0 t.shards );
      ("router.connections", Atomic.get t.connections);
      ("router.busy_rejections", Atomic.get t.busy_rejections);
      ("router.pipelined", Atomic.get t.pipelined);
    ]
  in
  Protocol.Stats_reply (summed @ tagged @ router_fields)

(* Generation-coordinated rolling reload: one shard at a time is
   marked draining (new traffic routes past it), its in-flight train
   drains on the shard mutex, the reload lands atomically server-side,
   and only then is the shard readmitted and the roll moves on.  At
   most one shard is ever out of rotation, so a multi-shard fleet
   keeps serving throughout; [reload_m] keeps two rolls from
   interleaving their generations on one shard.  A failure stops the
   roll and names the shard — earlier shards stay on the new model. *)
let rolling_reload t ~model =
  Mutex.protect t.reload_m (fun () ->
      Atomic.incr t.reloads;
      let n = Array.length t.shards in
      let rec go i last =
        if i = n then
          match last with
          | Some (m, g) -> Protocol.Reloaded { model = m; generation = g }
          | None -> err Protocol.Internal "empty fleet"
        else begin
          let s = t.shards.(i) in
          Atomic.set s.draining true;
          let result =
            Fun.protect
              ~finally:(fun () -> Atomic.set s.draining false)
              (fun () ->
                Mutex.protect s.m (fun () ->
                    exchange ~retry:false t s (Protocol.Reload { model })))
          in
          let stopped detail =
            Printf.sprintf "rolling reload stopped at %s (%d/%d shards done): %s" s.sname
              i n detail
          in
          match result with
          | Ok (Protocol.Reloaded { model = m; generation = g }) -> go (i + 1) (Some (m, g))
          | Ok (Protocol.Error { code; message }) -> err code (stopped message)
          | Ok r ->
            err Protocol.Internal
              (stopped ("unexpected reply " ^ Protocol.encode_response r))
          | Error msg -> err Protocol.Internal (stopped msg)
        end
      in
      go 0 None)

(* Load a candidate as shadow on every shard.  Unlike reload this does
   not change what any shard serves, so there is nothing to roll: the
   fanout is sequential under [reload_m] (no interleaving with a
   promote), stops at the first failure and names the shard — shards
   already carrying the canary keep it, which is harmless (a later
   [canary] retries idempotently, a later [promote] decides it). *)
let fanout_canary t ~model =
  Mutex.protect t.reload_m (fun () ->
      Atomic.incr t.fanouts;
      let n = Array.length t.shards in
      let rec go i =
        if i = n then
          if n = 0 then err Protocol.Internal "empty fleet"
          else Protocol.Canaried { model }
        else begin
          let s = t.shards.(i) in
          let result =
            Mutex.protect s.m (fun () ->
                exchange ~retry:false t s (Protocol.Canary { model }))
          in
          let stopped detail =
            Printf.sprintf "canary stopped at %s (%d/%d shards done): %s" s.sname i n
              detail
          in
          match result with
          | Ok (Protocol.Canaried _) -> go (i + 1)
          | Ok (Protocol.Error { code; message }) -> err code (stopped message)
          | Ok r ->
            err Protocol.Internal
              (stopped ("unexpected reply " ^ Protocol.encode_response r))
          | Error msg -> err Protocol.Internal (stopped msg)
        end
      in
      go 0)

(* Promote the canary shard by shard, mirroring [rolling_reload]: each
   shard is drained, decides its own promote (against its own
   observation log's held-out slice), and is readmitted before the
   roll moves on.  A shard's rejection (canary-rejected) stops the
   roll and surfaces as the router reply — shards already promoted
   stay on the new generation, exactly like a failed rolling reload. *)
let rolling_promote t =
  Mutex.protect t.reload_m (fun () ->
      Atomic.incr t.reloads;
      let n = Array.length t.shards in
      let rec go i last =
        if i = n then
          match last with
          | Some (m, g) -> Protocol.Promoted { model = m; generation = g }
          | None -> err Protocol.Internal "empty fleet"
        else begin
          let s = t.shards.(i) in
          Atomic.set s.draining true;
          let result =
            Fun.protect
              ~finally:(fun () -> Atomic.set s.draining false)
              (fun () ->
                Mutex.protect s.m (fun () -> exchange ~retry:false t s Protocol.Promote))
          in
          let stopped detail =
            Printf.sprintf "rolling promote stopped at %s (%d/%d shards done): %s"
              s.sname i n detail
          in
          match result with
          | Ok (Protocol.Promoted { model = m; generation = g }) -> go (i + 1) (Some (m, g))
          | Ok (Protocol.Error { code; message }) -> err code (stopped message)
          | Ok r ->
            err Protocol.Internal
              (stopped ("unexpected reply " ^ Protocol.encode_response r))
          | Error msg -> err Protocol.Internal (stopped msg)
        end
      in
      go 0 None)

(* ---- per-batch handling ---- *)

(* Serve one reactor batch, preserving reply order.  Consecutive
   rank/tune lines that hash to the same shard are forwarded as one
   downstream train (client pipelining survives the extra hop); fleet
   verbs flush the pending train first so ordering is observable. *)
let handle_lines t lines =
  let out = ref [] in
  let errors = ref 0 in
  let push reply =
    if String.length reply >= 4 && String.sub reply 0 4 = "err " then incr errors;
    out := reply :: !out
  in
  let pending = ref None in
  let flush () =
    match !pending with
    | None -> ()
    | Some (cands, rev_reqs) ->
      pending := None;
      List.iter push (forward_run t cands (List.rev rev_reqs))
  in
  let bye = ref false in
  List.iter
    (fun line ->
      if not !bye then begin
        Atomic.incr t.requests;
        match Protocol.parse_request line with
        | Error msg ->
          flush ();
          push (Protocol.encode_response (err Protocol.Bad_request msg))
        | Ok req -> (
          match routing_key req with
          | Some key -> (
            let cands = candidates t key in
            match !pending with
            | Some (prev, rev_reqs) when List.hd prev = List.hd cands ->
              pending := Some (prev, req :: rev_reqs)
            | Some _ | None ->
              flush ();
              pending := Some (cands, [ req ]))
          | None ->
            flush ();
            let response =
              match req with
              | Protocol.Info -> fanout_info t
              | Protocol.Stats -> fanout_stats t
              | Protocol.Reload { model } -> rolling_reload t ~model
              | Protocol.Canary { model } -> fanout_canary t ~model
              | Protocol.Promote -> rolling_promote t
              | Protocol.Shutdown ->
                Atomic.set t.stopping true;
                bye := true;
                Protocol.Bye
              | Protocol.Rank _ | Protocol.Tune _ | Protocol.Observe _ -> assert false
            in
            push (Protocol.encode_response response))
      end)
    lines;
  flush ();
  if !errors > 0 then ignore (Atomic.fetch_and_add t.errors !errors);
  (List.rev !out, !bye)

let worker_loop t reactor =
  Sorl_util.Pool.serially (fun () ->
      let buf = Buffer.create 512 in
      let rec loop () =
        match Sorl_util.Bqueue.pop t.queue with
        | None -> ()
        | Some { Reactor.conn; lines } ->
          Buffer.clear buf;
          let replies, bye = handle_lines t lines in
          List.iter
            (fun reply ->
              Buffer.add_string buf reply;
              Buffer.add_char buf '\n')
            replies;
          let wrote =
            Reactor.write_all ~timeout_s:t.conn_timeout_s (Reactor.conn_fd conn)
              (Buffer.contents buf)
          in
          Reactor.complete reactor conn ~close:(bye || Result.is_error wrote);
          loop ()
      in
      loop ())

(* ---- lifecycle ---- *)

let start ?(address = Protocol.Unix_path "sorl-router.sock") ?(workers = 4)
    ?(queue_capacity = 64) ?(conn_timeout_s = 10.) ?(connect_retry_s = 2.)
    ?(max_connections = 512) ?replicas shard_addresses =
  if workers < 1 then Error "Router.start: workers must be >= 1"
  else if shard_addresses = [] then Error "Router.start: no shard addresses"
  else
    match Server.listener address with
    | Error _ as e -> e
    | Ok (listen_fd, address) ->
      (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
      let shards =
        Array.of_list shard_addresses
        |> Array.mapi (fun i saddr ->
               {
                 sname = "s" ^ string_of_int i;
                 saddr;
                 m = Mutex.create ();
                 conn = None;
                 draining = Atomic.make false;
                 routed = Atomic.make 0;
                 reconnects = Atomic.make 0;
                 failures = Atomic.make 0;
               })
      in
      let ring =
        Ring.create ?replicas (Array.to_list (Array.map (fun s -> s.sname) shards))
      in
      let t =
        {
          address;
          shards;
          ring;
          workers;
          conn_timeout_s;
          connect_retry_s;
          listen_fd;
          queue = Sorl_util.Bqueue.create ~capacity:queue_capacity;
          stopping = Atomic.make false;
          reload_m = Mutex.create ();
          started_at = Unix.gettimeofday ();
          requests = Atomic.make 0;
          forwarded = Atomic.make 0;
          errors = Atomic.make 0;
          fanouts = Atomic.make 0;
          reloads = Atomic.make 0;
          connections = Atomic.make 0;
          busy_rejections = Atomic.make 0;
          pipelined = Atomic.make 0;
          reactor = None;
          reactor_domain = None;
          worker_domains = [];
          joined = false;
        }
      in
      let reactor =
        Reactor.create ~listen_fd ~queue:t.queue ~stopping:t.stopping ~max_connections
          ~idle_timeout_s:conn_timeout_s
          ~busy_reply:(Protocol.encode_response (err Protocol.Busy "router busy, retry later"))
          ~on_connection:(fun () -> Atomic.incr t.connections)
          ~on_shed:(fun () -> Atomic.incr t.busy_rejections)
          ~on_pipelined:(fun n -> ignore (Atomic.fetch_and_add t.pipelined n))
          ()
      in
      t.reactor <- Some reactor;
      t.worker_domains <-
        List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t reactor));
      t.reactor_domain <- Some (Domain.spawn (fun () -> Reactor.run reactor));
      Ok t

let address t = t.address
let requests_routed t = Atomic.get t.forwarded
let stop t = Atomic.set t.stopping true

let wait t =
  if not t.joined then begin
    t.joined <- true;
    (match t.reactor_domain with Some d -> Domain.join d | None -> ());
    List.iter Domain.join t.worker_domains;
    Array.iter (fun s -> Mutex.protect s.m (fun () -> disconnect s)) t.shards;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    match t.address with
    | Protocol.Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Protocol.Tcp _ -> ()
  end
