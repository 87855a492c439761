(** Growable packet ring buffer (FIFO).

    Push/pop allocate nothing (amortised), and vacated slots are
    overwritten with {!Packet.none} so departed packets are not
    retained. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> Packet.t -> unit

val pop : t -> Packet.t
(** @raise Invalid_argument when empty. *)

val peek : t -> Packet.t
(** @raise Invalid_argument when empty. *)

val get : t -> int -> Packet.t
(** [get t i] is the [i]-th packet from the head (0 = next to pop),
    without removing it.
    @raise Invalid_argument when out of range. *)

val pop_back : t -> Packet.t
(** Remove and return the newest (most recently pushed) packet — used
    by a failing link to take back the packet it was still
    serialising.
    @raise Invalid_argument when empty. *)

val transfer : src:t -> dst:t -> max:int -> int
(** Pop up to [max] packets from [src] and push them onto [dst] in
    FIFO order; returns the number moved. *)

val clear : t -> unit
