module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item
module X = Aqua_xquery.Ast
module Budget = Aqua_resilience.Budget
open Operator

(* Lexicographic comparison over pre-atomized order-by keys; [ckeys]
   pairs each key position with its (compiled key, descending, empty)
   spec, of which only the modifiers are read here. *)
let compare_keys ckeys ka kb =
  let rec go ks =
    match ks with
    | [] -> 0
    | ((a, b), (_, desc, empty)) :: more ->
      let c =
        match (a, b) with
        | [], [] -> 0
        | [], _ -> ( match empty with X.Empty_least -> -1 | X.Empty_greatest -> 1)
        | _, [] -> ( match empty with X.Empty_least -> 1 | X.Empty_greatest -> -1)
        | x :: _, y :: _ -> Atomic.compare_values x y
      in
      let c = if desc then -c else c in
      if c <> 0 then c else go more
  in
  go (List.combine (List.combine ka kb) ckeys)

let order_by ~label ~note ~gslots ~keys ~retain =
  let retain_n = Array.length retain in
  let mk cctx down =
    let count = ccounter cctx label in
    let pruned = max 0 (cctx.cnslots - retain_n) in
    let scratch = cctx.cscratch in
    let acc = ref [] in
    let out = cctx.calloc () in
    let out_cols = Array.map (Batch.column out) retain in
    { cpush =
        (fun b ->
          Budget.steps b.Batch.n;
          let in_cols = Array.map (fun s -> b.Batch.cols.(s)) retain in
          for k = 0 to b.Batch.n - 1 do
            let idx = b.Batch.sel.(k) in
            gather gslots scratch b idx;
            let ks = List.map (fun (ck, _, _) -> Item.atomize (ck scratch)) keys in
            (* retained past this cpush: copy the live column cells out
               of the batch *)
            let saved = Array.map (fun c -> c.(idx)) in_cols in
            acc := (ks, saved) :: !acc
          done);
      cflush =
        (fun () ->
          let keyed = List.rev !acc in
          acc := [];
          let sorted =
            List.stable_sort (fun (ka, _) (kb, _) -> compare_keys keys ka kb) keyed
          in
          count (List.length sorted);
          List.iter
            (fun (_, saved) ->
              let j = out.Batch.n in
              for t = 0 to retain_n - 1 do
                out_cols.(t).(j) <- saved.(t)
              done;
              out.Batch.sel.(j) <- j;
              out.Batch.n <- j + 1;
              if out.Batch.n = cctx.ccap then emit down pruned out)
            sorted;
          emit down pruned out;
          down.cflush ()) }
  in
  { label; note = Some note; mk }
