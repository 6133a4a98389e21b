(* Shared fixtures and assertions for the suite. *)

module Value = Aqua_relational.Value
module Rowset = Aqua_relational.Rowset
module Schema = Aqua_relational.Schema
module Sql_type = Aqua_relational.Sql_type
module Table = Aqua_relational.Table
module Artifact = Aqua_dsp.Artifact
module Translator = Aqua_translator.Translator
module Semantic = Aqua_translator.Semantic
module Errors = Aqua_translator.Errors
module Engine = Aqua_sqlengine.Engine
module Connection = Aqua_driver.Connection
module Result_set = Aqua_driver.Result_set

let demo_app () = Aqua_workload.Demo.build ()

(* An optimizing server reruns a compiled-engine fault on the
   interpreter, which would hide the fault from any test that checks
   only rows or error codes.  So every test fails on an interpreter
   rerun ([guard], applied to the whole suite) unless it ran inside
   [degrading] or [counting_fallbacks], whose callers expect reruns or
   check their number. *)
let declared_reruns = ref 0

let degrading f =
  let before = Aqua_dsp.Server.fallbacks () in
  Fun.protect f ~finally:(fun () ->
      declared_reruns :=
        !declared_reruns + (Aqua_dsp.Server.fallbacks () - before))

let guard (name, speed, test) =
  ( name,
    speed,
    fun x ->
      let before = Aqua_dsp.Server.fallbacks () and declared = !declared_reruns in
      test x;
      let undeclared =
        Aqua_dsp.Server.fallbacks () - before - (!declared_reruns - declared)
      in
      if undeclared > 0 then
        Alcotest.failf "%s: %d unexpected interpreter rerun(s)" name undeclared )

(* [f ()] with telemetry on, and the number of interpreter reruns the
   server made for it, read from [driver.fallbacks_unoptimized]. *)
let counting_fallbacks f =
  let module T = Aqua_core.Telemetry in
  let was = T.enabled () in
  T.set_enabled true;
  Fun.protect ~finally:(fun () -> T.set_enabled was) @@ fun () ->
  let before = T.value T.c_fallbacks_unoptimized in
  let v = degrading f in
  (v, T.value T.c_fallbacks_unoptimized - before)

(* Runs a SQL statement through the DSP driver path (given transport)
   and through the baseline engine; fails the test on divergence. *)
let assert_differential ?(transport = Connection.Text) app sql =
  let conn = Connection.connect ~transport app in
  let via_driver = Result_set.to_rowset (Connection.execute_query conn sql) in
  let direct = Engine.execute_sql (Engine.env_of_application app) sql in
  match Rowset.diff_summary direct via_driver with
  | None -> ()
  | Some msg ->
    Alcotest.failf "differential mismatch on %s: %s\n-- engine:\n%s\n-- driver:\n%s"
      sql msg (Rowset.to_string direct) (Rowset.to_string via_driver)

(* Runs through the engine only and returns displayed cells. *)
let engine_rows app sql =
  let rs = Engine.execute_sql (Engine.env_of_application app) sql in
  List.map
    (fun row -> List.map Value.to_display (Array.to_list row))
    rs.Rowset.rows

let driver_rows ?(transport = Connection.Text) app sql =
  let conn = Connection.connect ~transport app in
  let rs = Result_set.to_rowset (Connection.execute_query conn sql) in
  List.map
    (fun row -> List.map Value.to_display (Array.to_list row))
    rs.Rowset.rows

let translate app sql =
  Translator.translate (Semantic.env_of_application app) sql

let xquery_text app sql = Translator.to_string (translate app sql)

let expect_error ?kind app sql =
  match Translator.translate (Semantic.env_of_application app) sql with
  | _ -> Alcotest.failf "expected a translation error for: %s" sql
  | exception Errors.Error e -> (
    match kind with
    | None -> ()
    | Some k ->
      if e.Errors.kind <> k then
        Alcotest.failf "expected %s but got %s for: %s"
          (Errors.kind_to_string k) (Errors.to_string e) sql)

let check_rows = Alcotest.(check (list (list string)))

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* [f ()] with the failpoints [spec] armed.  A fault injected at an
   [xqeval.*] site is an engine fault, so the reruns such a spec causes
   are expected. *)
let with_failpoints ?seed spec f =
  Aqua_resilience.Failpoint.arm ?seed spec;
  Fun.protect ~finally:Aqua_resilience.Failpoint.disarm (fun () ->
      if contains ~needle:"xqeval." spec then degrading f else f ())

let assert_contains ~needle haystack =
  if not (contains ~needle haystack) then
    Alcotest.failf "expected to find %S in:\n%s" needle haystack

let case name f = Alcotest.test_case name `Quick f

(* Minor-heap words one call of [f] allocates in the calling domain,
   after two warm calls (a statement's plan, scans and column memos are
   all in place by its third run): a count of work that, unlike a time,
   does not depend on how busy the machine is. *)
let minor_words f =
  ignore (f ());
  ignore (f ());
  let before = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. before

(* Every property-based test routes through here so the whole suite is
   byte-reproducible: one seed (default 42, override with QCHECK_SEED)
   drives all generators.  qcheck-alcotest's default is
   [Random.self_init], which makes failures unreproducible in CI. *)
let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 42

let () = Printf.eprintf "qcheck seed: %d (override with QCHECK_SEED)\n%!" qcheck_seed

let qcheck cell =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| qcheck_seed |])
    cell
