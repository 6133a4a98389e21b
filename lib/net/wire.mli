(** PostgreSQL v3 simple-query wire codec.

    The subset a legacy reporting tool's driver needs to speak to the
    translator as if it were a PostgreSQL server: the startup
    handshake (plus the SSL/GSS probes, answered with a refusal byte),
    [Query], [Terminate], and the backend frames that carry a result
    set — [RowDescription], [DataRow] (text format), [CommandComplete]
    — or a typed failure ([ErrorResponse] with SQLSTATE fields).

    The codec is deliberately split from the socket layer: a {!Reader}
    pulls frames from any byte source (a connected socket, or an
    in-memory string for the fuzz suite), and every decoding failure
    is a value — {!error} — never an exception, so the server can map
    garbage, truncation and oversized frames to a session-scoped
    SQLSTATE 08P01 instead of dying.  Encoders append each frame
    straight to a [Buffer.t], so one flush per response batch reaches
    the socket as one write. *)

(** {1 Frontend (client -> server) messages} *)

type frontend =
  | Startup of (string * string) list
      (** protocol 3.0 startup; [(key, value)] parameters, e.g.
          [("user", …); ("database", …)] *)
  | Ssl_request  (** answered with ['N'] — no TLS *)
  | Gss_request  (** answered with ['N'] — no GSSAPI *)
  | Cancel_request  (** consumed and ignored (no backend keys map) *)
  | Query of string  (** simple-query: one SQL string *)
  | Terminate
  | Other of char * string
      (** a well-framed typed message the server does not implement
          (extended-protocol Parse/Bind/…); payload included *)

type error =
  | Eof  (** peer closed at a frame boundary or mid-frame *)
  | Timeout  (** the socket's receive deadline expired *)
  | Oversized of { kind : string; length : int; max : int }
      (** declared frame length beyond the reader's [max_frame] *)
  | Malformed of string  (** self-inconsistent frame *)

val error_to_string : error -> string

(** {1 Frame reader} *)

module Reader : sig
  type t
  (** A buffered frame reader.  It reads its byte source a chunk
      ({!chunk_size} bytes) at a time and parses frames out of the
      chunk; bytes read past one frame are kept for the next, so
      pipelined frames are never dropped.  A connection's startup
      frame is read through a small chunk, and the full chunk is
      allocated at the first typed frame. *)

  val chunk_size : int
  (** 64 KiB, the most one [Unix.read] returns. *)

  val of_read : ?max_frame:int -> (bytes -> int -> int -> int) -> t
  (** Reads from a byte source with the [Unix.read] contract: [read b
      off len] stores at most [len] bytes at [off] and returns their
      count, 0 at end of stream.  [max_frame] (default 1 MiB) bounds
      any single frame's declared payload length, and is checked
      before the payload is allocated — a garbage length prefix can
      therefore never make the server allocate or block unboundedly.
      An [EAGAIN]/[EWOULDBLOCK]/[EINTR] [Unix_error] (a [SO_RCVTIMEO]
      expiry) surfaces as {!Timeout}; any other as {!Eof}.  End of
      stream, at a frame boundary or inside a frame, is {!Eof}. *)

  val of_fd : ?max_frame:int -> Unix.file_descr -> t
  (** [of_read] over a connected socket. *)

  val of_string : ?max_frame:int -> string -> t
  (** [of_read] over an in-memory byte string (fuzz and unit tests);
      running out of bytes is {!Eof}, exactly like a closed peer. *)

  val read_startup : t -> (frontend, error) result
  (** The first, untyped frame of a connection: [Startup],
      {!Ssl_request}, {!Gss_request} or {!Cancel_request}. *)

  val read_message : t -> (frontend, error) result
  (** One typed frame ([Query], [Terminate], or {!Other}). *)
end

(** {1 Frontend encoders}

    Used by the in-repo bench client and the test suite. *)

val startup_message : Buffer.t -> (string * string) list -> unit
val query_message : Buffer.t -> string -> unit
val terminate_message : Buffer.t -> unit

(** {1 Backend (server -> client) encoders} *)

val authentication_ok : Buffer.t -> unit
val parameter_status : Buffer.t -> string -> string -> unit
val backend_key_data : Buffer.t -> pid:int -> secret:int -> unit

val ready_for_query : Buffer.t -> unit
(** Always reports idle (['I']) — no transactions. *)

val type_oid : Aqua_relational.Sql_type.t -> int
(** The PostgreSQL type OID advertised for a translator output column
    (e.g. INTEGER -> 23, VARCHAR -> 1043). *)

val row_description : Buffer.t -> Aqua_translator.Outcol.t list -> unit

val data_row : Buffer.t -> Aqua_relational.Value.t array -> unit
(** Text format; SQL NULL is the -1 length sentinel. *)

val command_complete : Buffer.t -> string -> unit
(** The tag, e.g. ["SELECT 6"]. *)

val empty_query_response : Buffer.t -> unit

val error_response :
  Buffer.t -> ?severity:string -> sqlstate:string -> string -> unit
(** [ErrorResponse] with severity (default ["ERROR"]), SQLSTATE code
    and message fields. *)

val ssl_refused : Buffer.t -> unit
(** The single ['N'] byte answering an SSL/GSS probe. *)

(** {1 Backend decoder}

    Used by the in-repo bench client and the test suite to consume the
    server's responses; not needed to serve. *)

type backend =
  | B_auth_ok
  | B_parameter_status of string * string
  | B_key_data of { pid : int; secret : int }
  | B_ready of char
  | B_row_description of string list  (** column labels *)
  | B_data_row of string option list  (** [None] = SQL NULL *)
  | B_command_complete of string
  | B_empty_query
  | B_error of (char * string) list  (** field code -> value *)
  | B_other of char * string

val read_backend : Reader.t -> (backend, error) result
