(* Samples, quantiles, operation accounting and the result line. *)

(* Growable float sample buffer; appends are domain-local (one buffer
   per load domain, merged after the join). *)
type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 1024 0.; n = 0 }

let add s x =
  if s.n = Array.length s.data then begin
    let d = Array.make (2 * s.n) 0. in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- x;
  s.n <- s.n + 1

let to_array s = Array.sub s.data 0 s.n
let merge l = Array.concat (List.map to_array l)

(* Linear interpolation between closest ranks on the sorted sample.
   A failed operation is an infinite sample: a quantile that reaches
   it is infinite (never NaN), so failures only ever worsen it. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i >= n - 1 || frac = 0. || a.(i) = a.(i + 1) then a.(i)
    else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5
let sum xs = Array.fold_left ( +. ) 0. xs

(* Interquartile range as a share of the median: the spread the
   benchmark reports next to every metric. *)
let spread xs =
  let m = median xs in
  if Array.length xs < 2 || m = 0. || Float.is_nan m then 0.
  else (quantile xs 0.75 -. quantile xs 0.25) /. Float.abs m

(* ---- operations: every attempted operation is counted, and every
   oracle mismatch is a failure that is never dropped ---- *)

type ops = { attempted : int Atomic.t; failed : int Atomic.t; lock : Mutex.t; mutable notes : string list }

let ops = { attempted = Atomic.make 0; failed = Atomic.make 0; lock = Mutex.create (); notes = [] }

let attempt () = Atomic.incr ops.attempted

let fail msg =
  Atomic.incr ops.failed;
  Mutex.protect ops.lock (fun () ->
      if List.length ops.notes < 20 then ops.notes <- msg :: ops.notes)

(* [check ok msg] counts one attempted operation, failed unless [ok]. *)
let check ok msg =
  attempt ();
  if not ok then fail (Lazy.force msg)

(* ---- metrics ---- *)

type metric = { name : string; value : float; unit_ : string; n : int; spread : float }

let metric ?(n = 1) name unit_ value = { name; value; unit_; n; spread = 0. }

(* A metric that is a median over a sample, carrying its size and
   spread. *)
let of_samples name unit_ ?(scale = 1.) ?(q = 0.5) xs =
  { name; value = scale *. quantile xs q; unit_; n = Array.length xs; spread = spread xs }

(* What one run of a workload measured. *)
type outcome = {
  e2e : metric list;  (** untraced figures; the workload-specific ones ride along *)
  layers : metric list;  (** traced figures, empty when untraced *)
  rounds : int;  (** set-ups (servers or pipelines) in the run *)
  clients : string;  (** load-generator connections *)
  mix : (string * string) list;  (** the traffic actually sent, measured *)
}

(* JSON has neither infinity nor NaN.  A non-finite value (a quantile
   that reached a failed operation, or a metric with no samples) is
   printed as the worst value of its direction, so it can never read
   as an improvement. *)
let json_number ~lower_better v =
  if not (Float.is_finite v) then if lower_better then "1e300" else "0.0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* [metrics] pairs each metric with whether lower is better. *)
let result_line ~correct metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (m, lower_better) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number ~lower_better m.value)
             m.unit_)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct (Atomic.get ops.attempted) (Atomic.get ops.failed) m
