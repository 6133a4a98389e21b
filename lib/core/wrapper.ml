(* The result-handling wrapper of paper section 4: instead of shipping
   XML to the client, the translated query is wrapped in an outer
   query that emits the rows as text interspersed with column and row
   delimiters, via fn:string-join.

   The column delimiters are '<' and the row prefix '>'.  This is safe
   precisely because every value passes through fn-bea:xml-escape,
   after which the data can contain neither character (the paper's
   sample output `>987654<Acme Widget Stores` relies on the same
   property).  SQL NULL (an empty sequence) is encoded by
   fn-bea:if-empty as a single NUL byte, which escaped data can never
   contain either (control characters become character references).

   The interpreter evaluates the wrapper as written.  The compiled
   engine recognizes its shape and writes the text directly: each
   row's delimiters and escaped cells are appended to one buffer, with
   no per-cell string and no final join (Compile's text writer,
   DESIGN.md section 16).  [decode] reads it back in one pass. *)

module X = Aqua_xquery.Ast
module Value = Aqua_relational.Value

let row_prefix = ">"
let column_separator = "<"
let null_marker = "\x00"

let encode_column token_var (col : Outcol.t) : X.expr =
  X.call "fn-bea:if-empty"
    [ X.call "fn-bea:xml-escape"
        [ X.call "fn-bea:serialize-atomic"
            [ X.call "fn:data"
                [ X.path1 (X.var token_var) col.Outcol.element ] ] ];
      X.str null_marker ]

let wrap (query : X.query) (columns : Outcol.t list) : X.query =
  let actual = "actualQuery" in
  let token = "tokenQuery" in
  let parts =
    List.concat
      (List.mapi
         (fun i col ->
           let sep = if i = 0 then row_prefix else column_separator in
           [ X.str sep; encode_column token col ])
         columns)
  in
  let body =
    X.call "fn:string-join"
      [ X.Flwor
          {
            X.clauses =
              [ X.Let { var = actual; value = query.X.body };
                X.For
                  {
                    var = token;
                    source = X.path1 (X.var actual) "RECORD";
                  } ];
            X.return = X.Seq parts;
          };
        X.str "" ]
  in
  { query with X.body }

(* ------------------------------------------------------------------ *)
(* Client-side decoding                                               *)

exception Decode_error of string

(* Inverse of fn-bea:xml-escape over [s.[pos .. pos + len - 1]]: a
   reference must end inside that range. *)
let unescape_sub s pos len =
  let stop = pos + len in
  let buf = Buffer.create len in
  let i = ref pos in
  while !i < stop do
    if s.[!i] = '&' then begin
      match String.index_from_opt s !i ';' with
      | Some semi when semi < stop ->
        let name = String.sub s (!i + 1) (semi - !i - 1) in
        (match name with
        | "amp" -> Buffer.add_char buf '&'
        | "lt" -> Buffer.add_char buf '<'
        | "gt" -> Buffer.add_char buf '>'
        | _ when String.length name > 1 && name.[0] = '#' -> (
          match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
          | Some c when c >= 0 && c < 256 -> Buffer.add_char buf (Char.chr c)
          | _ -> raise (Decode_error ("bad character reference &" ^ name ^ ";")))
        | _ -> raise (Decode_error ("unknown entity &" ^ name ^ ";")));
        i := semi + 1
      | _ -> raise (Decode_error "unterminated character reference")
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let unescape s = unescape_sub s 0 (String.length s)

(* Whether [text.[start ..]] continues with [null_marker]'s bytes
   from position [i] of the marker on. *)
let rec marker_at text start i =
  i = String.length null_marker
  || String.unsafe_get text (start + i) = String.unsafe_get null_marker i
     && marker_at text start (i + 1)

(* One pass over the text.  A row's cell boundaries are found first, so
   an arity error is reported before any of the row's cells is read;
   then each cell becomes its column's value in place: NULL for the
   marker, the cell's bytes (unescaped only when they hold a '&')
   through [Value.of_string] otherwise. *)
let decode ~(columns : Outcol.t list) (text : string) : Value.t array list =
  let n = String.length text in
  if n = 0 then []
  else begin
    if text.[0] <> row_prefix.[0] then
      raise (Decode_error "text result does not start with a row prefix");
    let tys = Array.of_list (List.map (fun (c : Outcol.t) -> c.Outcol.ty) columns) in
    let ncols = Array.length tys in
    let prefix = row_prefix.[0] and sep = column_separator.[0] in
    (* the current row's cells: start offset, length, holds a '&' *)
    let starts = Array.make ncols 0 and lens = Array.make ncols 0 in
    let amps = Array.make ncols false in
    let rows = ref [] in
    let pos = ref 1 in
    while !pos <= n do
      let cells = ref 0 and row_end = ref false in
      while not !row_end do
        let start = !pos in
        let j = ref start and amp = ref false in
        while
          !j < n
          &&
          let c = String.unsafe_get text !j in
          c <> sep && c <> prefix
        do
          if String.unsafe_get text !j = '&' then amp := true;
          incr j
        done;
        if !cells < ncols then begin
          starts.(!cells) <- start;
          lens.(!cells) <- !j - start;
          amps.(!cells) <- !amp
        end;
        incr cells;
        row_end := !j >= n || text.[!j] = prefix;
        pos := !j + 1
      done;
      if !cells <> ncols then
        raise
          (Decode_error
             (Printf.sprintf "row has %d cells, expected %d" !cells ncols));
      let row =
        Array.init ncols (fun k ->
            let start = starts.(k) and len = lens.(k) in
            if len = String.length null_marker && marker_at text start 0 then
              Value.Null
            else
              Value.of_string tys.(k)
                (if amps.(k) then unescape_sub text start len
                 else String.sub text start len))
      in
      rows := row :: !rows
    done;
    List.rev !rows
  end
