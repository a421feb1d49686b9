"""Reconstructions of the paper's SoC benchmarks.

The six benchmarks of Section 5 come from the authors' industrial design
set (reference [21] of the paper); their exact traffic tables were never
published.  The functions here rebuild communication graphs with the same
core counts and the traffic *structure* the paper and [21] describe:

* ``D26_media`` — 26 cores, "multimedia and wireless applications": a video
  pipeline, an audio pipeline, a wireless modem chain, processors, DMA and
  shared memory/peripheral targets.
* ``D36_4`` / ``D36_6`` / ``D36_8`` — 36 processing cores, each sending data
  to 4 / 6 / 8 other cores ("more complex traffic patterns").
* ``D35_bott`` — 35 cores with a bandwidth bottleneck: most cores funnel
  traffic into a small set of memory controllers.
* ``D38_tvopd`` — 38 cores, a TV object-plane-decoder-style design: several
  parallel decoding pipelines that merge into composition/display stages.

All generators are deterministic for a given ``seed`` (default 0), so every
figure regenerated from them (``plans/paper_figures.json``) is reproducible
bit for bit.
"""

from __future__ import annotations

import random
from typing import List

from repro.model.traffic import CommunicationGraph


def _add_chain(
    traffic: CommunicationGraph,
    stages: List[str],
    bandwidth: float,
    prefix: str,
    *,
    feedback: float = 0.0,
) -> None:
    """Connect ``stages`` into a pipeline with optional feedback flows."""
    index = 0
    for src, dst in zip(stages, stages[1:]):
        traffic.add_flow(f"{prefix}{index}", src, dst, bandwidth)
        index += 1
        if feedback > 0:
            traffic.add_flow(f"{prefix}{index}", dst, src, bandwidth * feedback)
            index += 1


def d26_media(seed: int = 0) -> CommunicationGraph:
    """26-core multimedia + wireless SoC (the paper's D26_media case study)."""
    rng = random.Random(seed)
    traffic = CommunicationGraph("D26_media")

    video = ["vid_in", "vid_preproc", "vid_enc", "vid_vlc", "vid_pack"]
    audio = ["aud_in", "aud_dsp", "aud_enc"]
    wireless = ["rf_frontend", "demod", "channel_dec", "mac", "proto_proc"]
    display = ["disp_ctrl", "disp_scaler", "lcd_if"]
    processors = ["cpu", "dsp0", "dsp1"]
    infrastructure = ["dma", "sdram0", "sdram1", "sram", "bridge", "usb", "flash"]
    cores = video + audio + wireless + display + processors + infrastructure
    assert len(cores) == 26, f"D26_media must have 26 cores, got {len(cores)}"
    traffic.add_cores(cores)

    # Stream pipelines.
    _add_chain(traffic, video, 320.0, "vid", feedback=0.1)
    _add_chain(traffic, audio, 64.0, "aud")
    _add_chain(traffic, wireless, 160.0, "wl", feedback=0.15)
    _add_chain(traffic, display, 240.0, "dsp_chain")

    # Pipelines feed and drain the shared memories through the DMA engine.
    flow_id = 0

    def flow(src: str, dst: str, bandwidth: float) -> None:
        nonlocal flow_id
        traffic.add_flow(f"m{flow_id}", src, dst, bandwidth)
        flow_id += 1

    flow("vid_pack", "sdram0", 300.0)
    flow("sdram0", "disp_ctrl", 280.0)
    flow("aud_enc", "sdram1", 60.0)
    flow("proto_proc", "sdram1", 120.0)
    flow("sdram1", "mac", 100.0)
    flow("dma", "sdram0", 200.0)
    flow("dma", "sdram1", 150.0)
    flow("sdram0", "dma", 180.0)
    flow("vid_in", "sram", 90.0)
    flow("sram", "vid_preproc", 90.0)

    # Processors orchestrate everything: control traffic to the pipeline
    # heads and data exchanges with the memories.
    control_targets = [
        "vid_in", "vid_enc", "aud_dsp", "rf_frontend", "mac",
        "disp_ctrl", "dma", "usb", "flash", "bridge",
    ]
    for cpu in processors:
        for target in control_targets:
            flow(cpu, target, round(rng.uniform(5.0, 30.0), 1))
        flow(cpu, "sdram0", round(rng.uniform(80.0, 160.0), 1))
        flow("sdram0", cpu, round(rng.uniform(80.0, 160.0), 1))

    # Peripheral/bridge background traffic.
    flow("usb", "sdram1", 40.0)
    flow("bridge", "sram", 25.0)
    flow("flash", "cpu", 20.0)
    return traffic


def _d36(fanout: int, seed: int) -> CommunicationGraph:
    """36 cores, each sending to ``fanout`` other cores (D36_4/6/8)."""
    rng = random.Random(seed)
    n_cores = 36
    traffic = CommunicationGraph(f"D36_{fanout}")
    cores = [f"p{i}" for i in range(n_cores)]
    traffic.add_cores(cores)
    flow_id = 0
    for i, src in enumerate(cores):
        # Partners mix locality (near neighbours) and long-range targets so
        # the synthesized topologies carry both short and long routes, as in
        # the original multi-media benchmark family.
        near = [(i + offset) % n_cores for offset in (1, 2, 3, 4)]
        far = [(i + offset) % n_cores for offset in (9, 13, 18, 23, 27, 31)]
        pool = near + [p for p in far if p not in near]
        rng.shuffle(pool)
        partners: List[int] = []
        for candidate in near[:2] + pool:
            if candidate != i and candidate not in partners:
                partners.append(candidate)
            if len(partners) == fanout:
                break
        for dst_index in partners:
            bandwidth = round(rng.uniform(20.0, 250.0), 1)
            traffic.add_flow(f"f{flow_id}", src, cores[dst_index], bandwidth)
            flow_id += 1
    return traffic


def d36_4(seed: int = 0) -> CommunicationGraph:
    """36 processing cores, each sending to 4 other cores."""
    return _d36(4, seed)


def d36_6(seed: int = 0) -> CommunicationGraph:
    """36 processing cores, each sending to 6 other cores."""
    return _d36(6, seed)


def d36_8(seed: int = 0) -> CommunicationGraph:
    """36 processing cores, each sending to 8 other cores (Figure 9)."""
    return _d36(8, seed)


def d35_bott(seed: int = 0) -> CommunicationGraph:
    """35-core design with a memory bottleneck (the paper's D35_bott)."""
    rng = random.Random(seed)
    traffic = CommunicationGraph("D35_bott")
    n_workers = 30
    workers = [f"pe{i}" for i in range(n_workers)]
    memories = ["mem0", "mem1", "mem2"]
    controllers = ["host", "sched"]
    cores = workers + memories + controllers
    assert len(cores) == 35, f"D35_bott must have 35 cores, got {len(cores)}"
    traffic.add_cores(cores)

    flow_id = 0
    for i, worker in enumerate(workers):
        memory = memories[i % len(memories)]
        write_bw = round(rng.uniform(120.0, 320.0), 1)
        read_bw = round(rng.uniform(120.0, 320.0), 1)
        traffic.add_flow(f"w{flow_id}", worker, memory, write_bw)
        flow_id += 1
        traffic.add_flow(f"w{flow_id}", memory, worker, read_bw)
        flow_id += 1
        # occasional worker-to-worker exchange
        if i % 3 == 0:
            peer = workers[(i + 5) % n_workers]
            traffic.add_flow(f"w{flow_id}", worker, peer, round(rng.uniform(15.0, 60.0), 1))
            flow_id += 1
    for controller in controllers:
        for i in range(0, n_workers, 4):
            traffic.add_flow(f"c{flow_id}", controller, workers[i], 10.0)
            flow_id += 1
        traffic.add_flow(f"c{flow_id}", controller, "mem0", 45.0)
        flow_id += 1
    traffic.add_flow(f"c{flow_id}", "sched", "host", 20.0)
    return traffic


def d38_tvopd(seed: int = 0) -> CommunicationGraph:
    """38-core TV object-plane-decoder-style design (the paper's D38_tvo)."""
    rng = random.Random(seed)
    traffic = CommunicationGraph("D38_tvopd")

    n_planes = 4
    plane_stages = ["vld", "iquant", "idct", "mc", "rec"]
    planes = [[f"{stage}{p}" for stage in plane_stages] for p in range(n_planes)]
    shared = [
        "stream_in", "demux", "osd", "blend", "scaler", "deint",
        "frame_buf0", "frame_buf1", "disp_out",
        "cpu", "mem_ctrl",
    ]
    audio = ["aud_dec", "aud_mix", "aud_out"]
    cores = [core for plane in planes for core in plane] + shared + audio
    # 4 planes x 5 stages = 20, shared = 11, audio = 3, plus the 4 plane
    # motion-compensation reference fetch units below.
    ref_units = [f"ref{p}" for p in range(n_planes)]
    cores += ref_units
    assert len(cores) == 38, f"D38_tvopd must have 38 cores, got {len(cores)}"
    traffic.add_cores(cores)

    flow_id = 0

    def flow(src: str, dst: str, bandwidth: float) -> None:
        nonlocal flow_id
        traffic.add_flow(f"f{flow_id}", src, dst, bandwidth)
        flow_id += 1

    flow("stream_in", "demux", 200.0)
    for p, plane in enumerate(planes):
        plane_bw = round(rng.uniform(120.0, 200.0), 1)
        flow("demux", plane[0], plane_bw)
        for src, dst in zip(plane, plane[1:]):
            flow(src, dst, plane_bw)
        # motion compensation fetches reference data from the frame buffers
        flow(ref_units[p], plane[3], plane_bw * 0.8)
        flow("frame_buf0" if p % 2 == 0 else "frame_buf1", ref_units[p], plane_bw * 0.8)
        # reconstructed plane goes to the blender
        flow(plane[-1], "blend", plane_bw)
    flow("osd", "blend", 60.0)
    flow("blend", "scaler", 400.0)
    flow("scaler", "deint", 400.0)
    flow("deint", "frame_buf0", 380.0)
    flow("deint", "frame_buf1", 380.0)
    flow("frame_buf0", "disp_out", 400.0)
    flow("frame_buf1", "disp_out", 400.0)
    flow("demux", "aud_dec", 48.0)
    flow("aud_dec", "aud_mix", 48.0)
    flow("aud_mix", "aud_out", 48.0)
    # CPU control plane and memory controller background traffic.
    for target in ("demux", "blend", "scaler", "disp_out", "aud_mix", "osd"):
        flow("cpu", target, round(rng.uniform(5.0, 25.0), 1))
    flow("cpu", "mem_ctrl", 120.0)
    flow("mem_ctrl", "cpu", 120.0)
    flow("mem_ctrl", "frame_buf0", 300.0)
    flow("mem_ctrl", "frame_buf1", 300.0)
    return traffic
