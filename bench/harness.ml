(* What every bench target shares: a gate list, the BENCH_parallel.json
   section writer, a throwaway model store with the servers and fleets
   started on it, and an exact-bytes load generator. *)

module Server = Sorl_serve.Server
module Client = Sorl_serve.Client
module Protocol = Sorl_serve.Protocol

(* ---- gates ---- *)

(* A [Check] is deterministic (identity, zero errors, counters that
   reconcile) and always blocks.  A [Timing] gate bounds a measured
   speed, latency or allocation: blocking locally, a WARNING under
   [CI], where shared runners make such bounds flaky. *)
type kind = Check | Timing

type gates = { mutable failed : (kind * string) list }

let gates () = { failed = [] }

(* [check g bad msg] / [timing g bad msg] record [msg] when [bad] holds. *)
let check g bad msg = if bad then g.failed <- (Check, msg) :: g.failed
let timing g bad msg = if bad then g.failed <- (Timing, msg) :: g.failed

let report g ~target =
  let ci = Sys.getenv_opt "CI" <> None in
  let failed = List.rev g.failed in
  if failed = [] then Printf.printf "OK: %s gates passed\n" target;
  let blocking = List.filter (fun (k, _) -> k = Check || not ci) failed in
  List.iter (fun (k, m) -> if ci && k = Timing then Printf.printf "WARNING: %s\n" m) failed;
  List.iter (fun (_, m) -> Printf.eprintf "FAIL: %s\n" m) blocking;
  if blocking <> [] then exit 1

(* ---- JSON ---- *)

(* Only the constructors live in [Json], so [Json.( ... )] opens
   nothing else into a target's scope. *)
module Json = struct
  type t =
    | Bool of bool
    | Int of int
    | Float of float
    | Lit of string  (** JSON text read back from the file, kept as written *)
    | Str of string
    | Arr of t list
    | Obj of (string * t) list
end

open Json

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | ('"' | '\\') as c -> Printf.bprintf b "\\%c" c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  "\"" ^ Buffer.contents b ^ "\""

(* Two-space indented, one member per line.  Keys are plain names and
   are written as they are. *)
let rec json_to_string ?(ind = 0) v =
  let block op cl = function
    | [] -> op ^ cl
    | xs ->
      let pad = "\n" ^ String.make (ind + 2) ' ' in
      op ^ pad ^ String.concat ("," ^ pad) xs ^ "\n" ^ String.make ind ' ' ^ cl
  in
  let inner = json_to_string ~ind:(ind + 2) in
  match v with
  | Bool x -> string_of_bool x
  | Int i -> string_of_int i
  | Float f -> if Float.is_finite f then Printf.sprintf "%.9g" f else "null"
  | Lit s -> s
  | Str s -> escape s
  | Arr l -> block "[" "]" (List.map inner l)
  | Obj l -> block "{" "}" (List.map (fun (k, v) -> "\"" ^ k ^ "\": " ^ inner v) l)

(* Strict recursive-descent reader: a missing or trailing byte is an
   error, never a silently shortened value.  Strings and numbers come
   back as [Lit]s (keys as their raw text), so a read-then-write keeps
   every other section byte for byte. *)
let parse_json s =
  let n = String.length s and i = ref 0 in
  let fail what = failwith (Printf.sprintf "%s at byte %d" what !i) in
  let ws () = while !i < n && String.contains " \t\r\n" s.[!i] do incr i done in
  let eat c =
    ws ();
    if !i < n && s.[!i] = c then incr i else fail (Printf.sprintf "expected %C" c)
  in
  let scan ok =
    let start = !i in
    while !i < n && ok s.[!i] do incr i done;
    String.sub s start (!i - start)
  in
  let raw_string () =
    eat '"';
    let escaped = ref false in
    let body =
      scan (fun c ->
          let more = !escaped || c <> '"' in
          escaped := (not !escaped) && c = '\\';
          more)
    in
    eat '"';
    body
  in
  let rec value () =
    ws ();
    match if !i < n then s.[!i] else '\000' with
    | '{' ->
      incr i;
      Obj (members (fun () -> let k = raw_string () in eat ':'; (k, value ())) '}')
    | '[' ->
      incr i;
      Arr (members value ']')
    | '"' -> Lit ("\"" ^ raw_string () ^ "\"")
    | _ -> (
      match scan (fun c -> String.contains "+-.eE0123456789truefalsn" c) with
      | "true" | "false" | "null" as w -> Lit w
      | w when w <> "" && String.contains "-0123456789" w.[0] && Float.of_string_opt w <> None ->
        Lit w
      | _ -> fail "bad value")
  and members : 'a. (unit -> 'a) -> char -> 'a list =
   fun item close ->
    ws ();
    if !i < n && s.[!i] = close then (incr i; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        ws ();
        if !i < n && s.[!i] = ',' then (incr i; more acc) else (eat close; List.rev acc)
      in
      more []
  in
  let v = value () in
  ws ();
  if !i <> n then fail "trailing bytes";
  v

(* ---- BENCH_parallel.json ---- *)

(* The file holds one top-level key per section.  Each write reads it
   back, so running targets one invocation at a time accumulates
   sections; the write replaces whole sections and goes through a temp
   file and a rename, so the file on disk is always a complete report.
   A file that does not parse stops the run and is left as it was. *)
let bench_file = "BENCH_parallel.json"

let load_sections () =
  if not (Sys.file_exists bench_file) then []
  else
    match parse_json (In_channel.with_open_bin bench_file In_channel.input_all) with
    | Obj kvs -> kvs
    | _ -> failwith (bench_file ^ ": top level is not an object; left untouched")
    | exception Failure m -> failwith (Printf.sprintf "%s: %s; left untouched" bench_file m)

let write_sections kvs =
  let merged =
    List.fold_left (fun acc (k, v) -> List.remove_assoc k acc @ [ (k, v) ]) (load_sections ()) kvs
  in
  let tmp = bench_file ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc (json_to_string (Obj merged));
      output_char oc '\n');
  Sys.rename tmp bench_file;
  print_endline ("wrote " ^ bench_file)

(* ---- fixtures ---- *)

let ok_exn = function Ok x -> x | Error m -> failwith m

(* [Some v] for [Ok v]; an [Error] prints a WARNING naming [what] and
   reads as [None]. *)
let ok_or_warn ~what = function
  | Ok v -> Some v
  | Error m ->
    Printf.printf "WARNING: %s failed: %s\n" what m;
    None

type fixture = {
  store : Sorl_serve.Model_store.t;
  dir : string;
  mutable teardown : (unit -> unit) list;
}

let path fx name = Filename.concat fx.dir name

let rec remove_tree p =
  if Sys.is_directory p then begin
    Array.iter (fun e -> remove_tree (Filename.concat p e)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

(* A fresh store in a temp dir holding [models] (name, tuner).  Every
   server and fleet started on it is stopped, and the directory with
   its sockets, logs and models removed, when [f] returns or raises. *)
let with_store ~tag models f =
  let dir = Filename.temp_dir (Printf.sprintf "sorl-%s-bench" tag) "" in
  let fx = { store = ok_exn (Sorl_serve.Model_store.open_dir dir); dir; teardown = [] } in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun stop -> try stop () with _ -> ()) fx.teardown;
      try remove_tree dir with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun (name, tuner) -> ok_exn (Sorl_serve.Model_store.save fx.store ~name tuner))
        models;
      f fx)

let stop_server s = Server.stop s; Server.wait s

(* A server on [fx]'s "default" model listening on the socket [name],
   and its address. *)
let start_server fx ~workers ?conn_timeout_s ?neighbors ?obs_log ~cache ~warm name =
  let s =
    ok_exn
      (Server.start ~address:(Protocol.Unix_path (path fx name)) ~workers ?conn_timeout_s
         ?neighbors ?obs_log ~cache_capacity:cache ~warm (Server.Store (fx.store, "default")))
  in
  fx.teardown <- (fun () -> stop_server s) :: fx.teardown;
  (s, Server.address s)

(* [shards] cache-off shard processes on [fx]'s "default" model behind
   a router on the socket [name]: the router's address and the function
   that stops router and shards.  Shards fork first: never fork while
   our own domains are live. *)
let start_fleet fx ~shards ~workers ~router_workers ?obs_dir ?canary_fraction name =
  let sh =
    ok_exn
      (Sorl_serve.Fleet.start ~dir:(path fx (name ^ ".shards")) ~shards ~workers ~cache_capacity:0
         ~warm:false ~conn_timeout_s:30. ?obs_dir ?canary_fraction
         (Server.Store (fx.store, "default")))
  in
  fx.teardown <- (fun () -> Sorl_serve.Fleet.stop sh) :: fx.teardown;
  let router =
    ok_exn
      (Sorl_serve.Router.start ~address:(Protocol.Unix_path (path fx name)) ~workers:router_workers
         ~conn_timeout_s:30. ~connect_retry_s:5. (Sorl_serve.Fleet.addresses sh))
  in
  let stop () =
    Sorl_serve.Router.stop router;
    Sorl_serve.Router.wait router;
    Sorl_serve.Fleet.stop sh
  in
  fx.teardown <- stop :: fx.teardown;
  (Sorl_serve.Router.address router, stop)

(* ---- wire and load ---- *)

(* A raw line connection: [ask] returns the reply line exactly as sent. *)
let connect = function
  | Protocol.Unix_path p -> Unix.open_connection (Unix.ADDR_UNIX p)
  | Protocol.Tcp _ -> invalid_arg "Harness.connect: unix sockets only"

let close (_, oc) = close_out_noerr oc

let ask (ic, oc) line =
  output_string oc (line ^ "\n");
  flush oc;
  input_line ic

let ask_once address line =
  let c = connect address in
  Fun.protect ~finally:(fun () -> close c) (fun () -> ask c line)

(* Seconds per call of [f], repeated until [min_time] has passed. *)
let per_call ?min_time f =
  fst (Sorl_util.Timer.time_repeat ?min_time (fun () -> ignore (Sys.opaque_identity (f ()))))

(* [clients] domains with one connection each send [per_client]
   requests; [request c ci j] sends request [j] of client [ci] and says
   whether the reply was right.  Returns the wall time, the per-request
   latencies (client-major) and the count of wrong or failed replies. *)
let load ~clients ~per_client address request =
  let latencies = Array.make (clients * per_client) 0. in
  let errors = Atomic.make 0 in
  let (), wall =
    Sorl_util.Timer.time (fun () ->
        Sorl_util.Pool.parallel_for ~domains:clients clients (fun ci ->
            match connect address with
            | exception (Unix.Unix_error _ | Sys_error _) ->
              ignore (Atomic.fetch_and_add errors per_client)
            | c ->
              for j = 0 to per_client - 1 do
                let t0 = Unix.gettimeofday () in
                let ok = try request c ci j with End_of_file | Sys_error _ -> false in
                if not ok then Atomic.incr errors;
                latencies.((ci * per_client) + j) <- Unix.gettimeofday () -. t0
              done;
              close c))
  in
  (wall, latencies, Atomic.get errors)

(* The [stats] counters of a server or router, then a [shutdown] on
   the same connection: a phase's last word.  A failed connection warns
   and reads as no counters. *)
let final_stats address =
  Client.with_connection address (fun c ->
      Result.bind (Client.stats c) (fun kvs -> Result.map (fun () -> kvs) (Client.shutdown c)))
  |> ok_or_warn ~what:"stats connection"
  |> Option.value ~default:[]

let stat kvs k = Option.value ~default:0 (List.assoc_opt k kvs)
