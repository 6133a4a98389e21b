(* Section-4 text transport: encoding and decoding. *)

module Wrapper = Aqua_translator.Wrapper
module Outcol = Aqua_translator.Outcol
module Sql_type = Aqua_relational.Sql_type
module Functions = Aqua_xqeval.Functions

let cols n =
  List.init n (fun i ->
      Outcol.make
        ~label:(Printf.sprintf "C%d" i)
        ~element:(Printf.sprintf "C%d" i)
        ~ty:(Sql_type.Varchar None) ~nullable:true)

let check_rows = Alcotest.(check (list (list (option string))))

module Value = Aqua_relational.Value

(* Decoded rows as lexical cells ([None] = NULL); every column of
   [cols] is a VARCHAR, so a value is its cell's unescaped text. *)
let lexical rows =
  List.map
    (fun row ->
      List.map
        (function
          | Value.Null -> None
          | Value.Str s -> Some s
          | v -> Alcotest.failf "unexpected value %s" (Value.to_display v))
        (Array.to_list row))
    rows

let decode ncols text = lexical (Wrapper.decode ~columns:(cols ncols) text)

(* The split-based decoder [Wrapper.decode] replaced, kept as the
   reference for the one-pass scan. *)
let old_unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '&' then begin
      match String.index_from_opt s !i ';' with
      | None -> raise (Wrapper.Decode_error "unterminated character reference")
      | Some semi ->
        let name = String.sub s (!i + 1) (semi - !i - 1) in
        (match name with
        | "amp" -> Buffer.add_char buf '&'
        | "lt" -> Buffer.add_char buf '<'
        | "gt" -> Buffer.add_char buf '>'
        | _ when String.length name > 1 && name.[0] = '#' -> (
          match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
          | Some c when c >= 0 && c < 256 -> Buffer.add_char buf (Char.chr c)
          | _ -> raise (Wrapper.Decode_error ("bad character reference &" ^ name ^ ";")))
        | _ -> raise (Wrapper.Decode_error ("unknown entity &" ^ name ^ ";")));
        i := semi + 1
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let old_decode ncols text =
  if text = "" then []
  else begin
    if not (String.length text > 0 && text.[0] = '>') then
      raise (Wrapper.Decode_error "text result does not start with a row prefix");
    let rows =
      match String.split_on_char '>' text with "" :: rest -> rest | rest -> rest
    in
    List.map
      (fun row ->
        let cells = String.split_on_char '<' row in
        if List.length cells <> ncols then
          raise
            (Wrapper.Decode_error
               (Printf.sprintf "row has %d cells, expected %d" (List.length cells)
                  ncols));
        List.map
          (fun cell -> if cell = "\x00" then None else Some (old_unescape cell))
          cells)
      rows
  end

(* The escaping [Functions.xml_escape] replaced, kept as its
   reference. *)
let old_xml_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | c when Char.code c < 0x20 && c <> '\t' && c <> '\n' && c <> '\r' ->
        Buffer.add_string buf (Printf.sprintf "&#%d;" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Encode rows the way the generated wrapper query does. *)
let encode rows =
  String.concat ""
    (List.map
       (fun row ->
         String.concat ""
           (List.mapi
              (fun i cell ->
                let sep = if i = 0 then ">" else "<" in
                let body =
                  match cell with
                  | None -> "\x00"
                  | Some s -> Functions.xml_escape s
                in
                sep ^ body)
              row))
       rows)

let roundtrip rows ncols () =
  let text = encode rows in
  check_rows "decoded" rows (decode ncols text);
  check_rows "as the split-based decoder" (old_decode ncols text)
    (decode ncols text)

let nasty_rows =
  [ [ Some "plain"; Some "" ];
    [ Some "a<b>c&d"; None ];
    [ Some ">starts"; Some "<mid<" ];
    [ Some "new\nline"; Some "tab\there" ];
    [ None; None ];
    [ Some "\x01control"; Some "d\x1fe" ] ]

let empty_result () =
  check_rows "no rows" [] (decode 2 "")

let decode_errors () =
  (match decode 2 "junk" with
  | exception Wrapper.Decode_error _ -> ()
  | _ -> Alcotest.fail "missing row prefix accepted");
  match decode 2 ">only-one-cell" with
  | exception Wrapper.Decode_error _ -> ()
  | _ -> Alcotest.fail "wrong arity accepted"

(* Each error of the one-pass decoder, with the split-based decoder's
   message.  A reference must end inside its own cell: the ';' of the
   next cell does not terminate it. *)
let decode_error_messages () =
  let pin what text expected =
    let message f =
      match f () with
      | exception Wrapper.Decode_error m -> m
      | _ -> Alcotest.failf "%s: accepted" what
    in
    Alcotest.(check string) what expected (message (fun () -> decode 2 text));
    Alcotest.(check string) (what ^ " (split-based)") expected
      (message (fun () -> old_decode 2 text))
  in
  pin "no row prefix" "a<b" "text result does not start with a row prefix";
  pin "too few cells" ">a<b>c" "row has 1 cells, expected 2";
  pin "too many cells" ">a<b<c" "row has 3 cells, expected 2";
  pin "too many cells before a bad cell" ">&x;<b<c" "row has 3 cells, expected 2";
  pin "unterminated reference" ">a&amp<b" "unterminated character reference";
  pin "unknown entity" ">a<&quot;" "unknown entity &quot;";
  pin "bad numeric reference" ">&#300;<b" "bad character reference &#300;";
  pin "non-numeric reference" ">&#x1;<b" "bad character reference &#x1;";
  (match decode 2 ">a&lt<b;" with
  | exception Wrapper.Decode_error m ->
    Alcotest.(check string) "reference bounded to its cell"
      "unterminated character reference" m
  | _ -> Alcotest.fail "a reference ended in the next cell");
  check_rows "trailing row prefix is a row of one empty cell"
    [ [ Some "a" ]; [ Some "" ] ] (decode 1 ">a>")

let unescape_cases () =
  Alcotest.(check string) "entities" "<&>" (Wrapper.unescape "&lt;&amp;&gt;");
  Alcotest.(check string) "char ref" "\x01" (Wrapper.unescape "&#1;");
  match Wrapper.unescape "&bogus;" with
  | exception Wrapper.Decode_error _ -> ()
  | _ -> Alcotest.fail "bad entity accepted"

(* property: arbitrary strings and NULLs survive the round-trip; the
   bytes favour the delimiters, '&', control bytes and the marker, and
   a NULL lands in every column position *)
let arb_cell =
  QCheck.(
    option
      (string_gen_of_size (Gen.int_bound 12)
         Gen.(
           frequency
             [ (4, char_range '\x00' '\x7f');
               (1, char_range '\x00' '\xff');
               (3, oneofl [ '<'; '>'; '&'; ';'; '#'; '\x00'; '\x01'; '\t'; '\n'; '\r'; '\x1f' ]) ])))

let prop_roundtrip =
  QCheck.Test.make ~name:"text transport round-trip" ~count:500
    QCheck.(list_of_size (Gen.int_range 1 6) (triple arb_cell arb_cell arb_cell))
    (fun rows ->
      let rows = List.map (fun (a, b, c) -> [ a; b; c ]) rows in
      let text = encode rows in
      decode 3 text = rows && old_decode 3 text = rows)

(* escaping: every byte value alone and among others, against the old
   escaping; an escape-free string comes back as itself *)
let escape_all_bytes () =
  for k = 0 to 255 do
    let s = String.make 1 (Char.chr k) in
    Alcotest.(check string) (Printf.sprintf "byte %d" k) (old_xml_escape s)
      (Functions.xml_escape s);
    let s = "a" ^ s ^ "bc" ^ s in
    let buf = Buffer.create 4 in
    Buffer.add_string buf "pre";
    Functions.xml_escape_into buf s;
    Alcotest.(check string) (Printf.sprintf "byte %d into" k)
      ("pre" ^ old_xml_escape s) (Buffer.contents buf)
  done;
  let plain = "no escapes here\t\n\r" in
  Alcotest.(check bool) "unescaped input returned as is" true
    (Functions.xml_escape plain == plain)

let prop_escape =
  QCheck.Test.make ~name:"xml_escape matches the old escaping" ~count:1000
    QCheck.(string_gen_of_size (Gen.int_bound 24) Gen.char)
    (fun s ->
      let buf = Buffer.create 4 in
      Functions.xml_escape_into buf s;
      Functions.xml_escape s = old_xml_escape s
      && Buffer.contents buf = old_xml_escape s)

(* end-to-end: driver text transport equals xml transport on nasty data *)
let transports_agree_on_nasty_data () =
  let module Table = Aqua_relational.Table in
  let module Schema = Aqua_relational.Schema in
  let module Value = Aqua_relational.Value in
  let module Artifact = Aqua_dsp.Artifact in
  let t =
    Table.create "NASTY"
      [ Schema.column ~nullable:false "ID" Sql_type.Integer;
        Schema.column "S" (Sql_type.Varchar None) ]
  in
  List.iteri
    (fun i cell ->
      Table.insert t
        [ Value.Int i; (match cell with None -> Value.Null | Some s -> Value.Str s) ])
    [ Some "a<b>&c"; None; Some ""; Some ">x<"; Some "q\"uote'"; Some "\ttab" ];
  let app = Artifact.application "NastyApp" in
  ignore (Artifact.import_physical_table app ~project:"P" t);
  let sql = "SELECT ID, S FROM NASTY ORDER BY ID" in
  let via_text = Helpers.driver_rows ~transport:Aqua_driver.Connection.Text app sql in
  let via_xml = Helpers.driver_rows ~transport:Aqua_driver.Connection.Xml app sql in
  Helpers.check_rows "transports agree" via_xml via_text

let suite =
  ( "wrapper",
    [ Helpers.case "round-trip simple" (roundtrip [ [ Some "a"; Some "b" ] ] 2);
      Helpers.case "round-trip nasty" (roundtrip nasty_rows 2);
      Helpers.case "empty result" empty_result;
      Helpers.case "decode errors" decode_errors;
      Helpers.case "decode error messages" decode_error_messages;
      Helpers.case "unescape" unescape_cases;
      Helpers.qcheck prop_roundtrip;
      Helpers.case "escaping of every byte value" escape_all_bytes;
      Helpers.qcheck prop_escape;
      Helpers.case "transports agree on nasty data" transports_agree_on_nasty_data ] )
