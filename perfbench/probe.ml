(* In-process layer probes for the traced run.  The server is another
   process, so its layers cannot be spanned from here; instead the
   benchmark replays the request lines it sent through the same public
   functions the server's request path calls, one span per layer, and
   derives transport (framing, queue wait, write) as the measured round
   trip minus that in-process compute. *)

open Sorl_stencil

let timed ?req name f =
  let t0 = Trace.now () in
  let r = Trace.span ?req name f in
  (r, Trace.now () -. t0)

(* Per replayed request: stage times in seconds. *)
type stages = {
  rtt : float;
  parse : float;
  lookup : float;  (** result-cache lookup *)
  encoder : float;  (** compiled-encoder lookup (compile on first use) *)
  select : float;  (** prune + score + select *)
  encode : float;  (** reply encode *)
  hit : bool;
}

let compute s = s.parse +. s.lookup +. s.encoder +. s.select +. s.encode

type replay = {
  stages : stages array;
  scored : int;  (** candidates scored by the top-k calls of the replay *)
  grid : int;  (** candidates on the grids of those calls *)
}

(* Replay [(shape index, round trip, request id)] records against [tbl] (the
   expected replies of [tuner]).  With [cache] the replay keeps a
   Result_cache warmed with every expected reply, as the server's is;
   otherwise every request takes the cold path.  Each computed reply
   is checked against the table. *)
let replay ~tuner ~(shapes : Oracle.shape array) ~(tbl : Oracle.table) ~cache records =
  let rc = Sorl_serve.Result_cache.create ~capacity:(if cache then 4096 else 0) () in
  let key (s : Oracle.shape) =
    Sorl_serve.Result_cache.key ~generation:0
      ~verb:(match s.top with None -> "tune" | Some k -> "rank:" ^ string_of_int k)
      ~benchmark:(Instance.name s.inst)
  in
  if cache then Array.iteri (fun i s -> Sorl_serve.Result_cache.put rc (key s) tbl.replies.(i)) shapes;
  let mode = Sorl.Autotuner.feature_mode tuner in
  let encoders = Hashtbl.create 32 in
  let scratch = Sorl.Autotuner.scratch () in
  let scored = ref 0 and grid = ref 0 in
  let stages =
    Array.map
      (fun (i, rtt, req) ->
        let s = shapes.(i) in
        Trace.span ~req "request.inprocess" (fun () ->
            let parsed, parse =
              timed ~req "protocol.parse_request" (fun () ->
                  Sorl_serve.Protocol.parse_request s.line)
            in
            Meter.check (Result.is_ok parsed) (lazy ("replay: parse failed for " ^ s.line));
            let found, lookup =
              timed ~req "result_cache.find" (fun () -> Sorl_serve.Result_cache.find rc (key s))
            in
            match found with
            | Some reply ->
              Meter.check (String.equal reply tbl.replies.(i)) (lazy "replay: cached reply differs");
              { rtt; parse; lookup; encoder = 0.; select = 0.; encode = 0.; hit = true }
            | None ->
              let name = Instance.name s.inst in
              let enc, encoder =
                timed ~req "features.encoder" (fun () ->
                    match Hashtbl.find_opt encoders name with
                    | Some e -> e
                    | None ->
                      let e = Trace.span ~req "features.compile" (fun () -> Features.compile mode s.inst) in
                      Hashtbl.add encoders name e;
                      e)
              in
              let dims = Kernel.dims (Instance.kernel s.inst) in
              let (ranked, ps), select =
                timed ~req "autotuner.top_k_pruned" (fun () ->
                    Sorl.Autotuner.top_k_pruned ~scratch tuner enc ~dims ~k:(Oracle.top_of s))
              in
              scored := !scored + ps.Sorl.Autotuner.scored;
              grid := !grid + ps.Sorl.Autotuner.scored + ps.Sorl.Autotuner.pruned;
              let reply, encode =
                timed ~req "protocol.encode_response" (fun () ->
                    Sorl_serve.Protocol.encode_response (Oracle.response_of s ranked))
              in
              Meter.check (String.equal reply tbl.replies.(i))
                (lazy ("replay: computed reply differs for " ^ s.line));
              { rtt; parse; lookup; encoder; select; encode; hit = false }))
      records
  in
  { stages; scored = !scored; grid = !grid }

(* Encode cost of a whole reply on the workload's own lines, for the
   paths (cache hits) that never encode per request. *)
let encode_times ~(tbl : Oracle.table) records =
  Array.map
    (fun (i, _, _) ->
      snd
        (timed "protocol.encode_response" (fun () ->
             Sorl_serve.Protocol.encode_response tbl.responses.(i))))
    records

(* Per-candidate encode and score cost, and bounder set-up, over every
   benchmark's full predefined grid. *)
type kernel_costs = {
  compile_s : float array;
  encode_ns : float array;
  score_ns : float array;
  bounder_s : float array;
}

let kernel_costs tuner =
  let mode = Sorl.Autotuner.feature_mode tuner in
  let model = Sorl.Autotuner.model tuner in
  let w = Sorl_svmrank.Model.weights model in
  let per =
    List.map
      (fun inst ->
        let enc, compile_s = timed "features.compile" (fun () -> Features.compile mode inst) in
        let dims = Kernel.dims (Instance.kernel inst) in
        let set = Tuning.predefined_set ~dims in
        let n = Array.length set in
        let cap = n * Features.max_nnz enc in
        let idx = Array.make cap 0 and v = Array.make cap 0. in
        let ends = Array.make (n + 1) 0 in
        let (), enc_s =
          timed "features.encode_at" (fun () ->
              Array.iteri (fun j t -> ends.(j + 1) <- Features.encode_at enc t idx v ends.(j)) set)
        in
        let score = Sorl_svmrank.Model.range_scorer model in
        let acc = ref 0. in
        let (), score_s =
          timed "model.range_scorer" (fun () ->
              for j = 0 to n - 1 do
                acc := !acc +. score idx v ends.(j) ends.(j + 1)
              done)
        in
        let axes = Tuning.predefined_axes ~dims in
        let _, bounder_s =
          timed "features.bounder" (fun () ->
              Features.bounder enc ~w ~bx:axes.Tuning.ax_bx ~by:axes.Tuning.ax_by ~bz:axes.Tuning.ax_bz
                ~u:axes.Tuning.ax_u ~c:axes.Tuning.ax_c)
        in
        ignore (Sys.opaque_identity !acc);
        let per_cand s = 1e9 *. s /. float_of_int n in
        (compile_s, per_cand enc_s, per_cand score_s, bounder_s))
      Benchmarks.instances
  in
  let pick f = Array.of_list (List.map f per) in
  {
    compile_s = pick (fun (a, _, _, _) -> a);
    encode_ns = pick (fun (_, b, _, _) -> b);
    score_ns = pick (fun (_, _, c, _) -> c);
    bounder_s = pick (fun (_, _, _, d) -> d);
  }
