module Telemetry = Aqua_core.Telemetry
module Budget = Aqua_resilience.Budget
open Operator

let let_ ~label ~gslots ~value ~slot =
  let mk cctx down =
    let count = ccounter cctx label in
    let scratch = cctx.cscratch in
    { cpush =
        (fun b ->
          Budget.steps b.Batch.n;
          (match value with
          | Some cval ->
            let col = Batch.column b slot in
            for k = 0 to b.Batch.n - 1 do
              let idx = b.Batch.sel.(k) in
              gather gslots scratch b idx;
              col.(idx) <- cval scratch
            done
          | None -> ());
          count b.Batch.n;
          if b.Batch.n > 0 then down.cpush b);
      cflush = (fun () -> down.cflush ()) }
  in
  { label; note = None; mk }

let where ~label ~gslots ~cond =
  let mk cctx down =
    let count = ccounter cctx label in
    let scratch = cctx.cscratch in
    { cpush =
        (fun b ->
          Budget.steps b.Batch.n;
          let n = b.Batch.n in
          let j = ref 0 in
          for k = 0 to n - 1 do
            let idx = b.Batch.sel.(k) in
            gather gslots scratch b idx;
            if cond scratch then begin
              b.Batch.sel.(!j) <- idx;
              incr j
            end
          done;
          b.Batch.n <- !j;
          Telemetry.add Telemetry.c_batch_filtered (n - !j);
          count !j;
          if b.Batch.n > 0 then down.cpush b);
      cflush = (fun () -> down.cflush ()) }
  in
  { label; note = None; mk }
