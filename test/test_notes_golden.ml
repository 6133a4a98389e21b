(* The compiled engine's operator notes, pinned: [Server.shape] of the
   text-transport plan [Server.prepare] builds for every statement of
   the differential battery and of the plan-cache gate's [report] and
   [wire_churn] statements, compared line for line with
   [notes_golden.expected].  The notes are what the lowering decided
   (columns carried and pruned, projections, derivations, kernels,
   probes, text writers), so a restructuring of the engine that keeps
   this file unchanged kept every one of those decisions.

   On a difference the case writes what it computed to
   [notes_golden.output] beside the expected file in the build tree;
   after an intended change, copy it over [test/notes_golden.expected]. *)

module Server = Aqua_dsp.Server
module Translator = Aqua_translator.Translator
module Semantic = Aqua_translator.Semantic
module Datagen = Aqua_workload.Datagen
module Batch = Aqua_xqeval.Batch

let expected_file = "notes_golden.expected"
let output_file = "notes_golden.output"

let notes_of app statements =
  let env = Semantic.env_of_application app in
  let srv = Server.create app in
  List.concat_map
    (fun sql ->
      let q = Translator.for_text_transport (Translator.translate env sql) in
      ("== " ^ sql) :: Server.shape (Server.prepare srv q))
    statements

let read_lines file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let notes_match_golden () =
  (* the first note prints the batch size, which CI also varies *)
  let size = Batch.size () in
  Batch.set_size 1024;
  let got =
    Fun.protect
      ~finally:(fun () -> Batch.set_size size)
      (fun () ->
        notes_of (Helpers.demo_app ()) Test_differential.battery
        @ notes_of
            (Datagen.application ~seed:45 Test_plan_cache.report_sizes)
            Test_plan_cache.report_statements
        @ notes_of
            (Datagen.application ~seed:45 Test_plan_cache.wire_sizes)
            Test_plan_cache.wire_statements)
  in
  let want = read_lines expected_file in
  if got <> want then begin
    Out_channel.with_open_text output_file (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) got);
    let rec first_diff k = function
      | w :: ws, g :: gs -> if w = g then first_diff (k + 1) (ws, gs) else (k, w, g)
      | w :: _, [] -> (k, w, "<end>")
      | [], g :: _ -> (k, "<end>", g)
      | [], [] -> (k, "", "")
    in
    let k, w, g = first_diff 1 (want, got) in
    Alcotest.failf
      "notes differ from %s at line %d:\n  expected: %s\n  got:      %s\n(all %d \
       line(s) written to %s)"
      expected_file k w g (List.length got) output_file
  end

let suite =
  ("notes golden", [ Helpers.case "operator notes match the golden file" notes_match_golden ])
