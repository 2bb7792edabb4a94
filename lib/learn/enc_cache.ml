open Sorl_stencil

(* Persistent encoded-feature sidecars, one per sealed segment.

   A sealed segment's records never change (the log renames a sealed
   tail exactly once), and PR 3's compiled encoders make the feature
   vector a pure function of (benchmark, tuning) under a fixed feature
   schema.  So the expensive part of assembling a training set — the
   encoding — can be done once per segment and persisted next to it.

   Sidecar format (written atomically so a torn sidecar is never
   observable; any validation failure just means "rebuild"):

     sorl-enc v2 <schema_hash> <segment_digest> rows <n> bytes <len> md5 <sum>\n
     <marshalled Sparse.t option array, exactly <len> bytes>

   The header line is text and pins both inputs of the pure function:
   [schema_hash] changes whenever the feature layout does
   ({!Features.schema_hash}), and [segment_digest] is the MD5 of the
   segment's bytes, so a resealed or compacted segment invalidates its
   sidecar.  The payload is a single [Marshal] blob — parsing it back
   is O(bytes) instead of O(nnz) float printing/scanning, which is
   what makes a cache hit an order of magnitude cheaper than
   re-encoding.  [Marshal.from_string] is only reached after the
   payload's length and MD5 check out, so torn or foreign bytes are
   rejected before they can confuse the unmarshaller; a round-tripped
   row is bit-identical to a fresh encoding (Marshal preserves float
   bits exactly). *)

let magic = "sorl-enc v2"

let path seg_file = seg_file ^ ".enc"

(* Encode one segment's records.  Rows are [None] for records naming
   unknown benchmarks (the trainer drops those, mirroring
   {!Trainer.resolve}).  Compiled encoders are memoized per benchmark
   within the segment. *)
let encode_records ~mode records =
  let encoders : (string, (Tuning.t -> Sorl_util.Sparse.t) option) Hashtbl.t =
    Hashtbl.create 16
  in
  let encoder name =
    match Hashtbl.find_opt encoders name with
    | Some e -> e
    | None ->
      let e =
        match Benchmarks.instance_by_name name with
        | inst -> Some (Features.encode mode inst)
        | exception Not_found -> None
      in
      Hashtbl.add encoders name e;
      e
  in
  List.map
    (fun (r : Obs_log.record) ->
      match encoder r.Obs_log.obs.Obs_log.benchmark with
      | None -> None
      | Some encode -> Some (encode r.Obs_log.obs.Obs_log.tuning))
    records
  |> Array.of_list

let build ~mode (seg : Obs_log.segment) =
  let rows = encode_records ~mode seg.Obs_log.seg_records in
  (try
     let payload = Marshal.to_string rows [] in
     Sorl_util.Persist.write_atomic (path seg.Obs_log.seg_file) (fun oc ->
         Printf.fprintf oc "%s %s %s rows %d bytes %d md5 %s\n" magic
           (Features.schema_hash mode) seg.Obs_log.digest (Array.length rows)
           (String.length payload)
           (Digest.to_hex (Digest.string payload));
         output_string oc payload)
   with Sys_error _ | Unix.Unix_error _ -> ());
  rows

let load ~mode (seg : Obs_log.segment) =
  match Sorl_util.Persist.read_to_string (path seg.Obs_log.seg_file) with
  | Error _ -> None
  | Ok raw -> (
    match String.index_opt raw '\n' with
    | None -> None
    | Some nl -> (
      let header = String.sub raw 0 nl in
      match String.split_on_char ' ' header with
      | [ m0; m1; schema; digest; "rows"; n; "bytes"; len; "md5"; sum ]
        when String.equal (m0 ^ " " ^ m1) magic
             && String.equal schema (Features.schema_hash mode)
             && String.equal digest seg.Obs_log.digest -> (
        match (int_of_string_opt n, int_of_string_opt len) with
        | Some n, Some len
          when n = List.length seg.Obs_log.seg_records
               && String.length raw - nl - 1 = len -> (
          let payload = String.sub raw (nl + 1) len in
          if not (String.equal sum (Digest.to_hex (Digest.string payload))) then None
          else
            match (Marshal.from_string payload 0 : Sorl_util.Sparse.t option array) with
            | rows -> if Array.length rows = n then Some rows else None
            | exception _ -> None)
        | _ -> None)
      | _ -> None))

(* Load-or-build: the trainer's entry point.  [hit] reports whether the
   sidecar was reused. *)
let get ~mode seg =
  match load ~mode seg with
  | Some rows -> (rows, true)
  | None -> (build ~mode seg, false)

let encode = encode_records
