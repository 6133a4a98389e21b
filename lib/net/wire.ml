(* PostgreSQL v3 simple-query wire codec.

   Decoding is hardened by construction: the reader owns every length
   check, a frame's declared size is validated against a hard cap
   before any allocation, and every failure mode — truncation, a
   garbage length, an unknown type byte — is an [error] value the
   server maps to a session-scoped 08P01.  Nothing in this module
   raises on malformed input; the only exceptions that can escape are
   [Unix.Unix_error] from the byte source, and the reader folds those
   into [Eof]/[Timeout] too.

   The reader is buffered: one read of the byte source fills a chunk,
   and frames are parsed out of it in place, so a reply of n frames
   costs about one read per chunk instead of three per frame.  Bytes
   read past a frame stay in the chunk for the next one. *)

module Sql_type = Aqua_relational.Sql_type
module Value = Aqua_relational.Value
module Outcol = Aqua_translator.Outcol

type frontend =
  | Startup of (string * string) list
  | Ssl_request
  | Gss_request
  | Cancel_request
  | Query of string
  | Terminate
  | Other of char * string

type error =
  | Eof
  | Timeout
  | Oversized of { kind : string; length : int; max : int }
  | Malformed of string

let error_to_string = function
  | Eof -> "connection closed"
  | Timeout -> "socket deadline expired"
  | Oversized { kind; length; max } ->
    Printf.sprintf "%s frame of %d bytes exceeds the %d-byte cap" kind
      length max
  | Malformed m -> "malformed frame: " ^ m

(* protocol constants *)
let protocol_v3 = 196608 (* 3 << 16 *)
let ssl_request_code = 80877103
let gss_request_code = 80877104
let cancel_request_code = 80877102

module Reader = struct
  type t = {
    read : bytes -> int -> int -> int;
        (* Unix.read contract: 0 = EOF; may raise Unix_error *)
    max_frame : int;
    mutable chunk : bytes;
    mutable pos : int;  (* first unparsed byte of [chunk] *)
    mutable lim : int;  (* end of the bytes read into [chunk] *)
  }

  let default_max_frame = 1 lsl 20

  (* One read(2) fills at most this much.  OCaml's [Unix.read] copies
     through a 64 KiB stack buffer (UNIX_BUFFER_SIZE), so no single
     call returns more: a larger chunk would buy no fewer reads. *)
  let chunk_size = 65_536

  (* A reader starts on a chunk that holds any ordinary startup frame
     and takes the full one at its first typed frame, so a connection
     refused after its startup frame never allocates [chunk_size]. *)
  let startup_chunk_size = 512

  let of_read ?(max_frame = default_max_frame) read =
    { read; max_frame; chunk = Bytes.create startup_chunk_size; pos = 0;
      lim = 0 }

  let of_fd ?max_frame fd = of_read ?max_frame (Unix.read fd)

  let of_string ?max_frame s =
    let off = ref 0 in
    of_read ?max_frame (fun b pos len ->
        let n = min len (String.length s - !off) in
        Bytes.blit_string s !off b pos n;
        off := !off + n;
        n)

  let full_chunk t =
    if Bytes.length t.chunk < chunk_size then begin
      let c = Bytes.create chunk_size in
      Bytes.blit t.chunk t.pos c 0 (t.lim - t.pos);
      t.chunk <- c;
      t.lim <- t.lim - t.pos;
      t.pos <- 0
    end

  (* One read into the chunk, after moving the unparsed tail to its
     front.  EOF, even mid-frame, is [Eof]: truncation and a closed
     peer are indistinguishable on a stream socket, and both end the
     session. *)
  let fill t =
    let rest = t.lim - t.pos in
    if t.pos > 0 then begin
      Bytes.blit t.chunk t.pos t.chunk 0 rest;
      t.pos <- 0;
      t.lim <- rest
    end;
    match t.read t.chunk t.lim (Bytes.length t.chunk - t.lim) with
    | 0 -> Error Eof
    | n ->
      t.lim <- t.lim + n;
      Ok ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      Error Timeout
    | exception Unix.Unix_error _ -> Error Eof

  (* At least [n] unparsed bytes in the chunk ([n] is a header's size,
     far below the chunk's). *)
  let rec ensure t n =
    if t.lim - t.pos >= n then Ok ()
    else match fill t with Ok () -> ensure t n | Error _ as e -> e

  (* The next [len] bytes as a string: cut from the chunk when it holds
     them, else assembled across refills. *)
  let take t len =
    let avail = t.lim - t.pos in
    if avail >= len then begin
      let s = Bytes.sub_string t.chunk t.pos len in
      t.pos <- t.pos + len;
      Ok s
    end
    else begin
      let buf = Bytes.create len in
      Bytes.blit t.chunk t.pos buf 0 avail;
      t.pos <- t.lim;
      let rec go off =
        if off = len then Ok (Bytes.unsafe_to_string buf)
        else
          match fill t with
          | Error _ as e -> e
          | Ok () ->
            let k = min (t.lim - t.pos) (len - off) in
            Bytes.blit t.chunk t.pos buf off k;
            t.pos <- t.pos + k;
            go (off + k)
      in
      go avail
    end

  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

  let be32 s off =
    (Char.code s.[off] lsl 24)
    lor (Char.code s.[off + 1] lsl 16)
    lor (Char.code s.[off + 2] lsl 8)
    lor Char.code s.[off + 3]

  (* The next byte, and the next big-endian length, read in place and
     consumed; [ensure] has made them available. *)
  let chunk_byte t =
    let c = Bytes.get t.chunk t.pos in
    t.pos <- t.pos + 1;
    c

  let chunk_be32 t =
    let v =
      (Bytes.get_uint16_be t.chunk t.pos lsl 16)
      lor Bytes.get_uint16_be t.chunk (t.pos + 2)
    in
    t.pos <- t.pos + 4;
    v

  (* NUL-separated fields of a startup payload: key/value pairs until
     the empty-string terminator; trailing garbage is ignored (be
     liberal in what we accept — the pairs we did parse are real). *)
  let startup_params payload =
    let fields = String.split_on_char '\000' payload in
    let rec pairs acc = function
      | "" :: _ | [] -> List.rev acc
      | [ _lone ] -> List.rev acc
      | k :: v :: rest -> pairs ((k, v) :: acc) rest
    in
    pairs [] fields

  let read_startup t =
    let* () = ensure t 8 in
    let length = chunk_be32 t in
    let code = chunk_be32 t in
    if length < 8 then
      Error (Malformed (Printf.sprintf "startup length %d < 8" length))
    else if length - 8 > t.max_frame then
      Error (Oversized { kind = "startup"; length; max = t.max_frame })
    else
      let* payload = take t (length - 8) in
      if code = ssl_request_code then Ok Ssl_request
      else if code = gss_request_code then Ok Gss_request
      else if code = cancel_request_code then Ok Cancel_request
      else if code = protocol_v3 then Ok (Startup (startup_params payload))
      else
        Error
          (Malformed
             (Printf.sprintf "unknown startup protocol %d (want 3.0)" code))

  (* Query text: up to the first NUL (the client appends one); a
     missing terminator is tolerated, the payload is the query. *)
  let cstring payload =
    match String.index_opt payload '\000' with
    | Some i -> String.sub payload 0 i
    | None -> payload

  let read_message t =
    full_chunk t;
    let* () = ensure t 5 in
    let tag = chunk_byte t in
    let length = chunk_be32 t in
    if length < 4 then
      Error
        (Malformed (Printf.sprintf "message %C length %d < 4" tag length))
    else if length - 4 > t.max_frame then
      Error
        (Oversized
           { kind = Printf.sprintf "%C" tag; length; max = t.max_frame })
    else
      let* payload = take t (length - 4) in
      match tag with
      | 'Q' -> Ok (Query (cstring payload))
      | 'X' -> Ok Terminate
      | c when (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ->
        Ok (Other (c, payload))
      | c ->
        Error (Malformed (Printf.sprintf "unknown message type byte %C" c))
end

(* ------------------------------------------------------------------ *)
(* Encoders: every frame is appended whole to a Buffer.t, so the
   sender flushes one write per batch.  Each encoder knows its
   payload's length before writing it, so a frame goes straight into
   the caller's buffer: type byte, length prefix, payload. *)

let add_be32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let add_be16 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let add_cstring buf s =
  Buffer.add_string buf s;
  Buffer.add_char buf '\000'

let cstring_length s = String.length s + 1

(* [header buf 'T' n]: the type byte, then a length prefix covering an
   [n]-byte payload (plus the prefix itself, per the protocol). *)
let header buf tag payload_length =
  Buffer.add_char buf tag;
  add_be32 buf (payload_length + 4)

(* frontend: the untyped startup frame, then the typed ones *)

let startup_message buf params =
  let pairs =
    List.fold_left
      (fun n (k, v) -> n + cstring_length k + cstring_length v)
      0 params
  in
  add_be32 buf (4 + 4 + pairs + 1);
  add_be32 buf protocol_v3;
  List.iter
    (fun (k, v) ->
      add_cstring buf k;
      add_cstring buf v)
    params;
  Buffer.add_char buf '\000'

let query_message buf sql =
  header buf 'Q' (cstring_length sql);
  add_cstring buf sql

let terminate_message buf = header buf 'X' 0

let authentication_ok buf =
  header buf 'R' 4;
  add_be32 buf 0

let parameter_status buf key value =
  header buf 'S' (cstring_length key + cstring_length value);
  add_cstring buf key;
  add_cstring buf value

let backend_key_data buf ~pid ~secret =
  header buf 'K' 8;
  add_be32 buf pid;
  add_be32 buf secret

let ready_for_query buf =
  header buf 'Z' 1;
  Buffer.add_char buf 'I'

(* PostgreSQL catalog OIDs for the SQL-92 types the translator can
   infer, so a real client library recognizes the columns. *)
let type_oid = function
  | Sql_type.Smallint -> 21
  | Sql_type.Integer -> 23
  | Sql_type.Bigint -> 20
  | Sql_type.Decimal _ -> 1700
  | Sql_type.Real -> 700
  | Sql_type.Double -> 701
  | Sql_type.Char _ -> 1042
  | Sql_type.Varchar _ -> 1043
  | Sql_type.Boolean -> 16
  | Sql_type.Date -> 1082
  | Sql_type.Time -> 1083
  | Sql_type.Timestamp -> 1114

(* the fixed descriptor bytes after each column name *)
let field_descriptor_length = 18

let row_description buf (cols : Outcol.t list) =
  header buf 'T'
    (List.fold_left
       (fun n (c : Outcol.t) ->
         n + cstring_length c.Outcol.label + field_descriptor_length)
       2 cols);
  add_be16 buf (List.length cols);
  List.iter
    (fun (c : Outcol.t) ->
      add_cstring buf c.Outcol.label;
      add_be32 buf 0 (* table OID: not a catalog table *);
      add_be16 buf 0 (* attribute number *);
      add_be32 buf (type_oid c.Outcol.ty);
      add_be16 buf 0xffff (* typlen -1: variable *);
      add_be32 buf 0xffffffff (* typmod -1 *);
      add_be16 buf 0 (* format: text *))
    cols

(* The cells are rendered first, so the length prefix can be written
   ahead of them; SQL NULL is the -1 length sentinel, with no bytes. *)
let data_row buf values =
  let cells =
    Array.map
      (function Value.Null -> None | v -> Some (Value.to_string v))
      values
  in
  header buf 'D'
    (Array.fold_left
       (fun n cell ->
         n + 4 + match cell with None -> 0 | Some s -> String.length s)
       2 cells);
  add_be16 buf (Array.length cells);
  Array.iter
    (function
      | None -> add_be32 buf 0xffffffff
      | Some s ->
        add_be32 buf (String.length s);
        Buffer.add_string buf s)
    cells

let command_complete buf tag =
  header buf 'C' (cstring_length tag);
  add_cstring buf tag

let empty_query_response buf = header buf 'I' 0

let error_response buf ?(severity = "ERROR") ~sqlstate message =
  (* four coded fields, then the field-list terminator *)
  header buf 'E'
    (1 + cstring_length severity + 1 + cstring_length severity + 1
    + cstring_length sqlstate + 1 + cstring_length message + 1);
  Buffer.add_char buf 'S';
  add_cstring buf severity;
  Buffer.add_char buf 'V';
  add_cstring buf severity;
  Buffer.add_char buf 'C';
  add_cstring buf sqlstate;
  Buffer.add_char buf 'M';
  add_cstring buf message;
  Buffer.add_char buf '\000'

let ssl_refused buf = Buffer.add_char buf 'N'

(* ------------------------------------------------------------------ *)
(* Backend decoder, for the in-repo client side. *)

type backend =
  | B_auth_ok
  | B_parameter_status of string * string
  | B_key_data of { pid : int; secret : int }
  | B_ready of char
  | B_row_description of string list
  | B_data_row of string option list
  | B_command_complete of string
  | B_empty_query
  | B_error of (char * string) list
  | B_other of char * string

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

(* signed big-endian 32-bit read out of a decoded payload *)
let sbe32 s off =
  let v = Reader.be32 s off in
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let split_cstrings s =
  match String.split_on_char '\000' s with
  | [] -> []
  | parts -> (
    (* a well-formed field list ends with NUL, leaving one "" *)
    match List.rev parts with
    | "" :: rest -> List.rev rest
    | _ -> parts)

let decode_error_fields payload =
  let rec go acc off =
    if off >= String.length payload || payload.[off] = '\000' then
      List.rev acc
    else
      let code = payload.[off] in
      let value_end =
        match String.index_from_opt payload (off + 1) '\000' with
        | Some i -> i
        | None -> String.length payload
      in
      let value = String.sub payload (off + 1) (value_end - off - 1) in
      go ((code, value) :: acc) (value_end + 1)
  in
  go [] 0

let decode_row_description payload =
  if String.length payload < 2 then Error (Malformed "T frame too short")
  else
    let n = (Char.code payload.[0] lsl 8) lor Char.code payload.[1] in
    let rec field acc off = function
      | 0 -> Ok (List.rev acc)
      | k ->
        if off >= String.length payload then
          Error (Malformed "T frame truncated")
        else (
          match String.index_from_opt payload off '\000' with
          | None -> Error (Malformed "T column name unterminated")
          | Some nul ->
            let name = String.sub payload off (nul - off) in
            (* skip the 18 fixed descriptor bytes after the name *)
            field (name :: acc) (nul + 1 + 18) (k - 1))
    in
    field [] 2 n

let decode_data_row payload =
  if String.length payload < 2 then Error (Malformed "D frame too short")
  else
    let n = (Char.code payload.[0] lsl 8) lor Char.code payload.[1] in
    let rec value acc off = function
      | 0 -> Ok (List.rev acc)
      | k ->
        if off + 4 > String.length payload then
          Error (Malformed "D frame truncated")
        else
          let len = sbe32 payload off in
          if len = -1 then value (None :: acc) (off + 4) (k - 1)
          else if len < 0 || off + 4 + len > String.length payload then
            Error (Malformed "D value length out of range")
          else
            value
              (Some (String.sub payload (off + 4) len) :: acc)
              (off + 4 + len) (k - 1)
    in
    value [] 2 n

let read_backend (r : Reader.t) =
  Reader.full_chunk r;
  let* () = Reader.ensure r 1 in
  let tag = Reader.chunk_byte r in
  if tag = 'N' then Ok (B_other ('N', "")) (* SSL refusal byte *)
  else
    let* () = Reader.ensure r 4 in
    let length = Reader.chunk_be32 r in
    if length < 4 then Error (Malformed "backend length < 4")
    else if length - 4 > r.Reader.max_frame then
      Error
        (Oversized
           { kind = Printf.sprintf "%C" tag; length; max = r.Reader.max_frame })
    else
      let* payload = Reader.take r (length - 4) in
      match tag with
      | 'R' -> Ok B_auth_ok
      | 'S' -> (
        match split_cstrings payload with
        | [ k; v ] -> Ok (B_parameter_status (k, v))
        | _ -> Error (Malformed "S frame fields"))
      | 'K' ->
        if String.length payload <> 8 then
          Error (Malformed "K frame size")
        else
          Ok
            (B_key_data
               { pid = Reader.be32 payload 0; secret = Reader.be32 payload 4 })
      | 'Z' ->
        if String.length payload <> 1 then
          Error (Malformed "Z frame size")
        else Ok (B_ready payload.[0])
      | 'T' ->
        let* cols = decode_row_description payload in
        Ok (B_row_description cols)
      | 'D' ->
        let* values = decode_data_row payload in
        Ok (B_data_row values)
      | 'C' -> Ok (B_command_complete (Reader.cstring payload))
      | 'I' -> Ok B_empty_query
      | 'E' -> Ok (B_error (decode_error_fields payload))
      | c -> Ok (B_other (c, payload))
