(** Textual notation for events and histories — the paper's
    [<insert(3),x,a>] syntax.

    {!Event.pp} already prints this form; this module parses it back,
    so example histories can live in plain-text files and round-trip
    through the tooling ([weihl check] in [bin/]).

    Grammar (whitespace-insensitive inside the angle brackets):
    {v
      event   ::= '<' body ',' object ',' activity '>'
      body    ::= 'commit' | 'commit' '(' nat ')' | 'abort'
                | 'initiate' '(' nat ')'
                | ident                      (* operation, no arguments *)
                | ident '(' args ')'         (* operation with arguments *)
                | value                      (* a termination result *)
      value   ::= nat | '-' nat | 'true' | 'false' | '()' | ident
      args    ::= value (',' value)*
    v}

    A bare identifier body is ambiguous between an invocation and a
    symbolic result; following the paper's convention, a body is read
    as a {e result} (termination event) when it is a literal value
    ([true], [false], a number, [()]) or when it matches the previous
    pending invocation convention is impossible to apply locally — so
    plain identifiers parse as invocations unless listed in
    [results]. *)

type error = { line : int; message : string }

val default_read_only : string -> bool
(** The paper's naming convention for activities: a name starting with
    'r', 's' or 't' is read-only, any other an update. *)

val pp_error : Format.formatter -> error -> unit

val event_of_string :
  ?read_only:(string -> bool) ->
  ?results:string list ->
  string ->
  (Event.t, string) result
(** Parse one event.  [read_only] classifies activity names
    (default: {!default_read_only}).  [results] lists identifiers to
    read as symbolic results rather than invocations (default: ["ok";
    "insufficient_funds"; "empty"; "none"]). *)

val value_of_string : string -> Value.t option
(** One [value] of the grammar: [()], [true], [false], an integer or an
    identifier. *)

val operation_of_string : string -> (Operation.t, string) result
(** One invocation body: an identifier, or an identifier with
    comma-separated [args] in parentheses.  Unlike {!event_of_string},
    a bare identifier is always an operation. *)

val history_of_string :
  ?read_only:(string -> bool) ->
  ?results:string list ->
  string ->
  (History.t, error) result
(** Parse a newline-separated history.  Blank lines and lines starting
    with '#' are skipped. *)

val history_to_string : History.t -> string
(** One event per line; inverse of {!history_of_string} for histories
    built from the default conventions. *)
