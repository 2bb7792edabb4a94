(** Event-driven connection multiplexer for the ranking server.

    PR 4's model pinned one worker domain per connection for the
    connection's whole lifetime, so 100 mostly-idle keep-alive clients
    starved a 4-worker server.  The reactor inverts that: a single
    domain owns {e every} connection — it accepts, does all the
    (non-blocking) reading, splits the byte stream into complete
    request lines, and hands {e ready request batches} (not
    connections) to the worker pool through a bounded
    {!Sorl_util.Bqueue}.  Idle connections cost one [select] slot;
    workers only ever hold runnable work.

    Pipelining falls out of the framing: when one read drains several
    buffered lines, they form a single batch, the worker answers them
    in order into one buffer and pays one [write] for the whole train.
    While a connection has a batch in flight it is not watched for
    reads and never dispatched again, so replies on a connection are
    always in request order.

    Workers signal completion with {!complete}, which wakes the
    [select] loop through a self-pipe; the reactor then either
    dispatches the lines that buffered meanwhile, or closes the
    connection (peer EOF, worker-requested close, or write failure).
    The reactor is the {e only} place a connection descriptor is ever
    closed, which structurally rules out the double-close hazards of
    the channel-based path it replaces.

    Backpressure has two layers, both answering with an [err busy]
    frame written under a send timeout (a slow or malicious client must
    not block the loop): at accept when [max_connections] is reached
    (the connection is closed after the reply), and at dispatch when
    the worker queue is full (the batch's requests are each answered
    [busy] and the connection closed).

    [on_pipelined n] reports a batch of [n > 1] requests that arrived
    together; the server counts them as [pipelined] in [stats]. *)

type t

type conn
(** One client connection, owned by the reactor. *)

type batch = { conn : conn; lines : string list }
(** A train of complete request lines, ready to serve, in arrival
    order. *)

val conn_fd : conn -> Unix.file_descr
(** The underlying descriptor — for workers to write replies to.  Do
    not close it; report the outcome via {!complete} instead. *)

val create :
  listen_fd:Unix.file_descr ->
  queue:batch Sorl_util.Bqueue.t ->
  stopping:bool Atomic.t ->
  ?max_connections:int ->
  ?idle_timeout_s:float ->
  busy_reply:string ->
  on_connection:(unit -> unit) ->
  on_shed:(unit -> unit) ->
  on_pipelined:(int -> unit) ->
  unit ->
  t
(** Build a reactor around an already-listening descriptor.  Defaults:
    [max_connections] 512, [idle_timeout_s] 10.  [busy_reply] is the
    pre-encoded [err busy] line (without newline) used by both shed
    paths.  [on_connection] / [on_shed] run on the reactor domain per
    accepted and per shed connection respectively; [on_pipelined n]
    fires for every dispatched batch of [n > 1] requests. *)

val run : t -> unit
(** The event loop.  Returns once [stopping] is set, every in-flight
    batch has completed, and all connections are closed.  Closes the
    worker queue on the way out so idle workers exit. *)

val complete : t -> conn -> close:bool -> unit
(** Worker-side: the batch for [conn] is fully answered.  [close]
    requests the connection be closed (after a [shutdown] reply, or a
    failed write).  Safe from any domain; wakes the loop. *)

val write_all : ?timeout_s:float -> Unix.file_descr -> string -> (unit, string) result
(** Write the whole string, retrying short writes, [EINTR] and
    [EAGAIN] (waiting for writability with [select]) until done or
    [timeout_s] (default 10) has elapsed.  Never raises; never blocks
    longer than the deadline even on a descriptor with a full send
    buffer. *)
