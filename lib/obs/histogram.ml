(* Log-linear (HDR-style) histogram over non-negative int64 values.

   Bucket layout: values 0..15 get one bucket each (the identity
   region); from there every power-of-two range [2^e, 2^(e+1)) is
   split into 16 linear sub-buckets, so bucket widths grow
   geometrically while the relative error stays <= 1/16.  For a value
   with highest set bit e >= 4 the index is

     (e - 3) * 16 + ((v lsr (e - 4)) land 15)

   which is continuous with the identity region (v = 16 lands on
   index 16).  Everything is exact-integer arithmetic; merge is
   bucketwise addition. *)

let subbuckets = 16

(* Highest exponent represented exactly; values with a higher leading
   bit clamp into the last bucket (2^51 ns is about 26 days, far past
   any query latency we care to resolve). *)
let max_exponent = 50

let bucket_count = ((max_exponent - 3) * subbuckets) + subbuckets

type t = {
  buckets : int array;
  mutable n : int;
  mutable sum : int64;
  mutable min_v : int64;  (* meaningful only when n > 0 *)
  mutable max_v : int64;
}

let create () =
  {
    buckets = Array.make bucket_count 0;
    n = 0;
    sum = 0L;
    min_v = 0L;
    max_v = 0L;
  }

let msb v =
  (* position of the highest set bit of a positive int *)
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let bucket_index v =
  let v = if Int64.compare v 0L < 0 then 0L else v in
  let vi =
    if Int64.compare v (Int64.of_int max_int) > 0 then max_int
    else Int64.to_int v
  in
  if vi < subbuckets then vi
  else
    let e = msb vi in
    if e > max_exponent then bucket_count - 1
    else ((e - 3) * subbuckets) + ((vi lsr (e - 4)) land (subbuckets - 1))

let bucket_upper_bound i =
  if i < subbuckets then Int64.of_int i
  else
    let e = (i / subbuckets) + 3 in
    let sub = i mod subbuckets in
    let width = 1 lsl (e - 4) in
    let lower = (subbuckets + sub) * width in
    Int64.of_int (lower + width - 1)

let record_n t v n =
  if n > 0 then begin
    let v = if Int64.compare v 0L < 0 then 0L else v in
    let i = bucket_index v in
    t.buckets.(i) <- t.buckets.(i) + n;
    if t.n = 0 then begin
      t.min_v <- v;
      t.max_v <- v
    end
    else begin
      if Int64.compare v t.min_v < 0 then t.min_v <- v;
      if Int64.compare v t.max_v > 0 then t.max_v <- v
    end;
    t.n <- t.n + n;
    t.sum <- Int64.add t.sum (Int64.mul v (Int64.of_int n))
  end

let record t v = record_n t v 1

let count t = t.n
let total t = t.sum
let min_value t = if t.n = 0 then 0L else t.min_v
let max_value t = if t.n = 0 then 0L else t.max_v
let is_empty t = t.n = 0

let percentile t p =
  if t.n = 0 then 0L
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank =
      max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)))
    in
    let rec walk i seen =
      if i >= bucket_count then max_value t
      else
        let seen = seen + t.buckets.(i) in
        if seen >= rank then
          (* the bucket bound over-approximates; the exact max is a
             tighter cap for ranks landing in the top bucket *)
          let b = bucket_upper_bound i in
          if Int64.compare b t.max_v > 0 then t.max_v else b
        else walk (i + 1) seen
    in
    walk 0 0
  end

let p50 t = percentile t 50.0
let p90 t = percentile t 90.0
let p99 t = percentile t 99.0

let merge_into ~into src =
  if src.n > 0 then begin
    Array.iteri
      (fun i c -> if c > 0 then into.buckets.(i) <- into.buckets.(i) + c)
      src.buckets;
    if into.n = 0 then begin
      into.min_v <- src.min_v;
      into.max_v <- src.max_v
    end
    else begin
      if Int64.compare src.min_v into.min_v < 0 then into.min_v <- src.min_v;
      if Int64.compare src.max_v into.max_v > 0 then into.max_v <- src.max_v
    end;
    into.n <- into.n + src.n;
    into.sum <- Int64.add into.sum src.sum
  end

let merge a b =
  let t = create () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

let reset t =
  Array.fill t.buckets 0 bucket_count 0;
  t.n <- 0;
  t.sum <- 0L;
  t.min_v <- 0L;
  t.max_v <- 0L

let nonzero_buckets t =
  let acc = ref [] in
  for i = bucket_count - 1 downto 0 do
    if t.buckets.(i) > 0 then
      acc := (bucket_upper_bound i, t.buckets.(i)) :: !acc
  done;
  !acc

let quantiles_to_json t =
  Printf.sprintf
    "{\"count\":%d,\"total_ns\":%Ld,\"min_ns\":%Ld,\"p50_ns\":%Ld,\"p90_ns\":%Ld,\"p99_ns\":%Ld,\"max_ns\":%Ld}"
    t.n t.sum (min_value t) (p50 t) (p90 t) (p99 t) (max_value t)
