(* Raw sorl1 line client for rank/tune reads: the benchmark compares
   reply bytes, so it reads the line exactly as the server wrote it
   instead of going through Client's parser. *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect address =
  let domain, sockaddr =
    match address with
    | Sorl_serve.Protocol.Tcp (host, port) ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
    | Sorl_serve.Protocol.Unix_path p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p)
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (match domain with Unix.PF_INET -> Unix.setsockopt fd Unix.TCP_NODELAY true | _ -> ());
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  Unix.connect fd sockaddr;
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* One request line out, one reply line back. *)
let call c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
