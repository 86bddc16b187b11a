// Calibration constants for the simulated reproduction.
//
// Every number is derived from figures the paper reports, not tuned to make
// one experiment look good; the same constants drive all figure benches.
//
// Derivations (paper section in parentheses):
//
//  * compress_bytes_per_sec — Fig. 12 config A (8 C threads) is compression-
//    bound at ~37 Gbps end-to-end: 37/8 = 4.6 Gbps of raw input per thread
//    = 0.578 GB/s, consistent with single-core LZ4 on 2:1 data (§3.2). The
//    constant is set ~7% above that (0.62 GB/s) because the simulated
//    pipeline charges queueing bubbles and send-thread co-location the real
//    measurement already folds into its 4.6 Gbps.
//
//  * decompress_bytes_per_sec — §3.3: decompression ~3x compression with the
//    same thread count; Fig. 12 configs E (4 D threads, ~48 Gbps) and F
//    (8 D threads, ~97 Gbps) bracket 12-13 Gbps of raw output per thread.
//    We use 13.3 Gbps = 1.66 GB/s (2.9x compression).
//
//  * receive_cpu_bytes_per_sec — Fig. 11: one S/R thread moves ~32 Gbps;
//    throughput scales with receive threads until the NIC saturates at 4
//    threads (~97 of 100 Gbps). 32 Gbps of wire per receive core = 4 GB/s.
//
//  * send_cpu_bytes_per_sec — §3.4: sender-side placement and count never
//    bind (NIC-to-CPU backpressure, [16]); sending is cheap protocol work.
//    8 GB/s per core keeps it comfortably off the critical path.
//
//  * remote_access_cpu_penalty (HostParams) — Obs. 1/4: receivers on the
//    wrong socket lose ~15% (1/1.176 = 0.85).
//
//  * interconnect 21 GB/s (HostParams) — Fig. 5/7: with every packet DMA'd
//    into NUMA 1 and all receivers on NUMA 0, throughput tops out ~15% below
//    the NUMA 1 ceiling; 21 GB/s = 168 Gbps of cross-socket packet reads.
//
//  * memory_bandwidth 74 GB/s (HostParams) — Fig. 9: 16 decompression
//    threads writing into one socket hit LLC/MC contention that an 8+8
//    split avoids; with ~3.0 bytes of MC traffic per raw byte, sixteen
//    threads demand 16 x 1.66 x 3.0 = 80 GB/s > 74, eight demand 40 < 74.
//
//  * mem-traffic factors — compression streams raw in and half-size out
//    (1 + 0.5); decompression re-reads match windows while expanding
//    (0.5 in + 1.0 out + ~1.5 of back-reference traffic).
//
//  * compression_ratio 2.0 — §3.2: "the data stream achieves a compression
//    ratio of 2:1"; Fig. 14's end-to-end = 2x network identity depends on it.
#pragma once

namespace numastream::simrt {

struct Calibration {
  // Per-thread processing rates (work bytes per second of one full core).
  double compress_bytes_per_sec = 0.62e9;     ///< raw bytes in
  double decompress_bytes_per_sec = 1.66e9;   ///< raw bytes out
  double receive_cpu_bytes_per_sec = 4.0e9;   ///< wire bytes
  double send_cpu_bytes_per_sec = 8.0e9;      ///< wire bytes

  // Memory-controller traffic per work byte.
  double compress_mem_read_per_raw_byte = 1.0;   ///< raw input
  double compress_mem_write_per_raw_byte = 0.5;  ///< compressed output
  /// Decompression traffic is write-side dominated: the compressed input
  /// streams through the LLC (tiny DRAM footprint), while the expanding
  /// output plus match-window re-reads hammer the *local* memory controller.
  /// This asymmetry is what makes the Fig. 9 contention insensitive to the
  /// source data's domain (A~B~C~D) while the 8+8 split (E/F) escapes it.
  double decompress_mem_read_per_raw_byte = 0.05;  ///< compressed input
  double decompress_mem_write_per_raw_byte = 2.95; ///< output + window re-reads
  /// Packet read when the receiver runs in the NIC domain: DDIO has DMA'd
  /// the payload into the shared LLC, so most reads never touch DRAM.
  double receive_local_read_per_wire_byte = 0.2;
  /// Packet read from the wrong socket: every byte crosses the interconnect
  /// and the NIC domain's memory path (DDIO does not help cross-socket).
  double receive_remote_read_per_wire_byte = 1.0;
  double receive_mem_write_per_wire_byte = 1.0;  ///< reassembled buffer
  double send_mem_read_per_wire_byte = 1.0;      ///< frame read for the NIC

  /// Average LZ4 ratio on the tomographic stream.
  double compression_ratio = 2.0;
};

}  // namespace numastream::simrt
