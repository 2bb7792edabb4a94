(* The server under test: a separate `sorl_tune serve' process, as
   users run it.  OCaml 5 stops every domain of a process for a minor
   collection, so a server sharing the load generator's runtime would
   add the generator's allocation to its own latency. *)

type t = {
  pid : int;
  address : Sorl_serve.Protocol.address;
  out : Unix.file_descr;  (** the server's stdout, kept open so its exit message never meets a closed pipe *)
}

let live : int list ref = ref []

(* Kill any server still running when the benchmark exits on an error
   path, and reap it. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let read_line_timeout fd ~timeout =
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then Error "timed out waiting for the server to start"
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> loop ()
      | _ -> (
        match Unix.read fd byte 0 1 with
        | 0 -> Error "server exited before it was ready"
        | _ ->
          if Bytes.get byte 0 = '\n' then Ok (Buffer.contents buf)
          else begin
            Buffer.add_bytes buf byte;
            loop ()
          end)
  in
  loop ()

(* Spawn [exe serve args] listening on an ephemeral loopback port and
   wait for its "serving on <address>" line, which it prints only once
   the model is loaded and the result cache warmed. *)
let start ~exe ~workdir args =
  let log = Filename.concat workdir "server.log" in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list ((exe :: "serve" :: "--listen" :: "tcp:127.0.0.1:0" :: args)) in
  let pid = Unix.create_process exe argv null out_w err in
  Unix.close out_w;
  Unix.close null;
  Unix.close err;
  live := pid :: !live;
  let line = read_line_timeout out_r ~timeout:120. in
  let parsed =
    Result.bind line (fun l ->
        match String.split_on_char ' ' l with
        | "serving" :: "on" :: a :: _ -> Sorl_serve.Protocol.address_of_string a
        | _ -> Error ("unexpected server banner: " ^ l))
  in
  match parsed with
  | Ok address -> Ok { pid; address; out = out_r }
  | Error m ->
    Unix.close out_r;
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    live := List.filter (( <> ) pid) !live;
    Error m

(* Peak resident set size (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec loop () =
          match input_line ic with
          | exception End_of_file -> nan
          | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
          | _ -> loop ()
        in
        loop ())

let self_peak_rss_mb () = peak_rss_mb (Unix.getpid ())

(* Graceful shutdown over the protocol, then reap; a server that does
   not exit within 20 s is killed (and that counts as a failure). *)
let stop t =
  let asked =
    match Sorl_serve.Client.connect ~timeout_s:10. t.address with
    | Error _ -> false
    | Ok c ->
      let r = Sorl_serve.Client.shutdown c in
      Sorl_serve.Client.close c;
      Result.is_ok r
  in
  let deadline = Unix.gettimeofday () +. 20. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      Unix.kill t.pid Sys.sigkill;
      ignore (Unix.waitpid [] t.pid);
      false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let clean = reap () in
  Unix.close t.out;
  live := List.filter (( <> ) t.pid) !live;
  asked && clean
