open Sorl_stencil

type params = { lambda : float; epochs : int; learning_rate : float; seed : int }

let default_params = { lambda = 1e-4; epochs = 200; learning_rate = 0.05; seed = 1 }

type t = { w : float array; bias : float; mode : Features.mode }

let train ?(params = default_params) ~mode ds =
  if params.lambda < 0. then invalid_arg "Regression_tuner: lambda must be nonnegative";
  if params.epochs < 1 then invalid_arg "Regression_tuner: epochs must be >= 1";
  if Sorl_svmrank.Dataset.dim ds <> Features.dim mode then
    invalid_arg "Regression_tuner.train: dataset dimension does not match feature mode";
  let samples = Sorl_svmrank.Dataset.samples ds in
  let n = Array.length samples in
  let dim = Sorl_svmrank.Dataset.dim ds in
  let targets =
    Array.map (fun s -> log s.Sorl_svmrank.Dataset.runtime) samples
  in
  (* Center the target so the bias starts near the solution. *)
  let mean_t = Array.fold_left ( +. ) 0. targets /. float_of_int n in
  let w = Array.make dim 0. in
  let bias = ref mean_t in
  let w_sum = Array.make dim 0. in
  let bias_sum = ref 0. in
  let rng = Sorl_util.Rng.create params.seed in
  let order = Array.init n (fun i -> i) in
  let steps = ref 0 in
  for _ = 1 to params.epochs do
    Sorl_util.Rng.shuffle rng order;
    Array.iter
      (fun i ->
        incr steps;
        let eta = params.learning_rate /. (1. +. (params.lambda *. float_of_int !steps)) in
        let x = samples.(i).Sorl_svmrank.Dataset.features in
        let err = Sorl_util.Sparse.dot_dense x w +. !bias -. targets.(i) in
        (* clip the residual so one outlier step cannot blow the model up *)
        let err = Float.max (-10.) (Float.min 10. err) in
        (* ridge gradient step *)
        Sorl_util.Vec.scale_inplace (1. -. (eta *. params.lambda)) w;
        Sorl_util.Sparse.axpy_dense (-.eta *. err) x w;
        bias := !bias -. (eta *. err);
        Sorl_util.Vec.add_inplace w_sum w;
        bias_sum := !bias_sum +. !bias)
      order
  done;
  let inv = 1. /. float_of_int !steps in
  Sorl_util.Vec.scale_inplace inv w_sum;
  { w = w_sum; bias = !bias_sum *. inv; mode }

let predict_log_runtime t phi = Sorl_util.Sparse.dot_dense phi t.w +. t.bias

let rank t inst candidates =
  let encode = Features.encode t.mode inst in
  let preds = Array.map (fun tn -> predict_log_runtime t (encode tn)) candidates in
  let idx = Array.init (Array.length candidates) (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare preds.(a) preds.(b) in
      if c <> 0 then c else compare a b)
    idx;
  Array.map (fun i -> candidates.(i)) idx

let best t inst candidates =
  if Array.length candidates = 0 then invalid_arg "Regression_tuner.best: no candidates";
  (rank t inst candidates).(0)

let mode t = t.mode
