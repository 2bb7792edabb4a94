(* Tests for the §III feature encoding. *)

open Sorl_stencil

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let feq = Alcotest.float 1e-9

let inst3 = Benchmarks.instance_by_name "laplacian-128x128x128"
let inst2 = Benchmarks.instance_by_name "edge-512x512"
let t3 = Tuning.create ~bx:64 ~by:8 ~bz:8 ~u:4 ~c:4
let t2 = Tuning.create ~bx:64 ~by:16 ~bz:1 ~u:2 ~c:2
let encode_dense mode inst t = Sorl_util.Sparse.to_dense (Features.encode mode inst t)

let test_dims () =
  checki "canonical dim" 353 (Features.dim Features.Canonical);
  checki "extended dim" 480 (Features.dim Features.Extended)

let test_all_values_in_unit_interval () =
  List.iter
    (fun mode ->
      List.iter
        (fun (inst, t) ->
          let v = encode_dense mode inst t in
          checki "dimension" (Features.dim mode) (Array.length v);
          Array.iter (fun x -> checkb "in [0,1]" true (x >= 0. && x <= 1.)) v)
        [ (inst3, t3); (inst2, t2) ])
    [ Features.Canonical; Features.Extended ]

let test_pattern_cells () =
  let v = encode_dense Features.Canonical inst3 t3 in
  (* laplacian r1: 7 pattern cells set to 1 (single buffer). *)
  let ones = Array.fold_left (fun acc i -> acc +. i) 0. (Array.sub v 0 Pattern.cells) in
  Alcotest.check feq "7 cells" 7. ones;
  Alcotest.check feq "center set" 1. v.(Pattern.cell_index (0, 0, 0))

let test_multibuffer_pattern_normalized () =
  (* divergence: 3 buffers, disjoint single-axis reads -> each accessed
     cell has multiplicity 1/3. *)
  let inst = Benchmarks.instance_by_name "divergence-128x128x128" in
  let v = encode_dense Features.Canonical inst t3 in
  Alcotest.check feq "multiplicity 1/3" (1. /. 3.) v.(Pattern.cell_index (1, 0, 0));
  Alcotest.check feq "center unread" 0. v.(Pattern.cell_index (0, 0, 0))

let test_dtype_and_buffers () =
  let v_double = encode_dense Features.Canonical inst3 t3 in
  Alcotest.check feq "double flag" 1. v_double.(Pattern.cells + 1);
  Alcotest.check feq "1 buffer" 0.25 v_double.(Pattern.cells);
  let v_float = encode_dense Features.Canonical inst2 t2 in
  Alcotest.check feq "float flag" 0. v_float.(Pattern.cells + 1)

let test_size_features () =
  let v = encode_dense Features.Canonical inst3 t3 in
  (* 128 = 2^7, normalized by 11. *)
  Alcotest.check feq "size_x" (7. /. 11.) v.(Pattern.cells + 2);
  Alcotest.check feq "size_z" (7. /. 11.) v.(Pattern.cells + 4);
  let v2 = encode_dense Features.Canonical inst2 t2 in
  Alcotest.check feq "2d size_z = log2(1)/11 = 0" 0. v2.(Pattern.cells + 4)

let test_tuning_features () =
  let v = encode_dense Features.Canonical inst3 t3 in
  let base = Pattern.cells + 2 + 3 in
  Alcotest.check feq "bx = log2 64 / 10" 0.6 v.(base);
  Alcotest.check feq "by" 0.3 v.(base + 1);
  Alcotest.check feq "u = 4/8" 0.5 v.(base + 3);
  Alcotest.check feq "c = log2 4 / 8" 0.25 v.(base + 4)

let test_tuning_sensitivity () =
  (* Different tunings of the same instance must encode differently. *)
  let a = Features.encode Features.Canonical inst3 t3 in
  let b =
    Features.encode Features.Canonical inst3 (Tuning.create ~bx:8 ~by:64 ~bz:8 ~u:1 ~c:16)
  in
  checkb "differ" false (Sorl_util.Sparse.equal a b)

let test_instance_features_cancel_in_pairs () =
  (* Within-query pair differences keep only tuning-dependent coords. *)
  let a = Features.encode Features.Extended inst3 t3 in
  let b =
    Features.encode Features.Extended inst3 (Tuning.create ~bx:8 ~by:64 ~bz:8 ~u:1 ~c:16)
  in
  let d = Sorl_util.Sparse.sub a b in
  let tuning_idx = Features.tuning_feature_indices Features.Extended in
  Array.iter
    (fun (i, _) -> checkb "diff only on tuning features" true (Array.mem i tuning_idx))
    (Sorl_util.Sparse.nonzeros d)

let test_extended_bins_one_hot () =
  let v = encode_dense Features.Extended inst3 t3 in
  (* each one-hot bin group contributes exactly 1 beyond canonical +
     continuous: total mass of the extension is continuous + 9 bins. *)
  let ext = Array.sub v 353 (480 - 353) in
  let bin_part = Array.sub ext 10 (Array.length ext - 10) in
  let total = Array.fold_left ( +. ) 0. bin_part in
  Alcotest.check feq "9 one-hot groups" 9. total;
  Array.iter (fun x -> checkb "bins are 0/1" true (x = 0. || x = 1.)) bin_part

let test_deterministic () =
  let a = Features.encode Features.Extended inst3 t3 in
  let b = Features.encode Features.Extended inst3 t3 in
  checkb "stable" true (Sorl_util.Sparse.equal a b)

let test_mode_strings () =
  checkb "roundtrip canonical" true
    (Features.mode_of_string (Features.mode_to_string Features.Canonical) = Features.Canonical);
  checkb "roundtrip extended" true
    (Features.mode_of_string (Features.mode_to_string Features.Extended) = Features.Extended);
  Alcotest.check_raises "unknown" (Invalid_argument "Features.mode_of_string: nope")
    (fun () -> ignore (Features.mode_of_string "nope"))

let test_names () =
  List.iter
    (fun mode ->
      let n = Features.names mode in
      checki "one name per feature" (Features.dim mode) (Array.length n);
      let tbl = Hashtbl.create 512 in
      Array.iter (fun s -> Hashtbl.replace tbl s ()) n;
      checki "names unique" (Features.dim mode) (Hashtbl.length tbl))
    [ Features.Canonical; Features.Extended ]

let gen_tuning3 =
  QCheck2.Gen.(
    let* bx = int_range 2 1024 in
    let* by = int_range 2 1024 in
    let* bz = int_range 2 1024 in
    let* u = int_range 0 8 in
    let* c = int_range 1 256 in
    return (Tuning.create ~bx ~by ~bz ~u ~c))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"extended encoding stays in [0,1]" gen_tuning3
         (fun t ->
           let v = encode_dense Features.Extended inst3 t in
           Array.for_all (fun x -> x >= 0. && x <= 1.) v));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"canonical is a prefix of extended" gen_tuning3
         (fun t ->
           let c = encode_dense Features.Canonical inst3 t in
           let e = encode_dense Features.Extended inst3 t in
           Array.sub e 0 (Array.length c) = c));
  ]

let suite =
  [
    Alcotest.test_case "dims" `Quick test_dims;
    Alcotest.test_case "values in [0,1]" `Quick test_all_values_in_unit_interval;
    Alcotest.test_case "pattern cells" `Quick test_pattern_cells;
    Alcotest.test_case "multi-buffer normalization" `Quick test_multibuffer_pattern_normalized;
    Alcotest.test_case "dtype/buffers" `Quick test_dtype_and_buffers;
    Alcotest.test_case "size features" `Quick test_size_features;
    Alcotest.test_case "tuning features" `Quick test_tuning_features;
    Alcotest.test_case "tuning sensitivity" `Quick test_tuning_sensitivity;
    Alcotest.test_case "pairs cancel instance features" `Quick
      test_instance_features_cancel_in_pairs;
    Alcotest.test_case "extended one-hot bins" `Quick test_extended_bins_one_hot;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "mode strings" `Quick test_mode_strings;
    Alcotest.test_case "feature names" `Quick test_names;
  ]
  @ qcheck_tests
