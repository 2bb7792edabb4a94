let max_domains = 128

let env_domains () =
  let parse v =
    match int_of_string_opt (String.trim v) with
    | Some n when n >= 1 -> Some (min n max_domains)
    | _ -> None
  in
  Option.bind (Sys.getenv_opt "SORL_POOL_DOMAINS") parse

(* [with_domains] override; read/written from the main domain only. *)
let override = ref None

let default_domains () =
  let n =
    match !override with
    | Some n -> n
    | None -> (
      match env_domains () with Some n -> n | None -> Domain.recommended_domain_count ())
  in
  if n < 1 then 1 else if n > max_domains then max_domains else n

let with_domains n f =
  if n < 1 then invalid_arg "Pool.with_domains: size must be >= 1";
  let saved = !override in
  override := Some (min n max_domains);
  Fun.protect ~finally:(fun () -> override := saved) f

(* Workers carry this flag so parallel code reached from inside a chunk
   degrades to serial instead of spawning a second level of domains. *)
let inside_pool = Domain.DLS.new_key (fun () -> false)

let serially f =
  let saved = Domain.DLS.get inside_pool in
  Domain.DLS.set inside_pool true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set inside_pool saved) f

let parallel_chunks ?domains n f =
  if n < 0 then invalid_arg "Pool.parallel_chunks: negative count";
  if n = 0 then [||]
  else begin
    let d = match domains with Some d -> max 1 d | None -> default_domains () in
    let nchunks = min d n in
    if nchunks <= 1 || Domain.DLS.get inside_pool then [| f 0 n |]
    else begin
      let bounds i = (i * n / nchunks, (i + 1) * n / nchunks) in
      let guarded lo hi =
        Domain.DLS.set inside_pool true;
        match f lo hi with
        | r -> Ok r
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      let workers =
        Array.init (nchunks - 1) (fun k ->
            let lo, hi = bounds (k + 1) in
            Domain.spawn (fun () -> guarded lo hi))
      in
      (* Chunk 0 on the calling domain; clear the nesting flag before
         joining so the caller's domain is reusable afterwards. *)
      let first =
        let lo, hi = bounds 0 in
        let r = guarded lo hi in
        Domain.DLS.set inside_pool false;
        r
      in
      let results = Array.append [| first |] (Array.map Domain.join workers) in
      Array.iter
        (function Error (e, bt) -> Printexc.raise_with_backtrace e bt | Ok _ -> ())
        results;
      Array.map (function Ok r -> r | Error _ -> assert false) results
    end
  end

let parallel_for ?domains n f =
  ignore
    (parallel_chunks ?domains n (fun lo hi ->
         for i = lo to hi - 1 do
           f i
         done))

let parallel_map ?domains f a =
  let n = Array.length a in
  if n = 0 then [||]
  else
    parallel_chunks ?domains n (fun lo hi -> Array.init (hi - lo) (fun k -> f a.(lo + k)))
    |> Array.to_list |> Array.concat

let parallel_map_list ?domains f l = Array.to_list (parallel_map ?domains f (Array.of_list l))

let parallel_reduce ?domains ~map ~combine ~init a =
  let chunks =
    parallel_chunks ?domains (Array.length a) (fun lo hi ->
        (* Chunks are non-empty by construction. *)
        let acc = ref (map a.(lo)) in
        for i = lo + 1 to hi - 1 do
          acc := combine !acc (map a.(i))
        done;
        !acc)
  in
  Array.fold_left combine init chunks
