"""Command-line entry points: node daemon, upload, download, simulator."""

import logging
import os
import sys
from contextlib import closing

import click

from . import hashing
from .blockstore import BlockStore, quota_bytes
from .client import download as client_download
from .client import upload as client_upload
from .errors import HainaError, NetworkError, UsageError
from .experiments import EXPERIMENTS, parse_cluster_spec, run_experiment
from .metafile import META_SUFFIX, parse_meta_file, serialize_meta_file
from .metrics import MetricsRow, rows_to_csv
from .node import NodeServer, NodeService
from .nodefile import parse_address, parse_node_file, update_node_file
from .por import PorConfig
from .realnet import RealNet
from .frames import Frame, MsgType

log = logging.getLogger("haina")


def _setup_logging():
    level = os.environ.get("HAINA_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(name)s %(levelname)s %(message)s")


def _load_node_file(path):
    with open(path, "rb") as fh:
        return parse_node_file(fh.read())


def _fail(exc: HainaError):
    click.echo(f"error: {exc}", err=True)
    sys.exit(exc.exit_code)


@click.group()
def main():
    """Decentralized secure storage client and node tools."""
    _setup_logging()


@main.group()
def node():
    """Storage-node commands."""


@node.command("serve")
@click.option("--listen", required=True, help="host:port to bind")
@click.option(
    "--advertise", default=None, help="host:port peers reach this node at, as the roster names it (default: --listen)"
)
@click.option("--data-dir", required=True, type=click.Path(), help="block storage directory")
@click.option("--quota-gb", default=1.0, show_default=True, help="storage quota in GB")
@click.option("--nf", "nf_path", required=True, type=click.Path(exists=True), help="node roster file")
@click.option("--bootstrap", default=None, help="peer to synchronize the roster from")
def node_serve(listen, advertise, data_dir, quota_gb, nf_path, bootstrap):
    """Run the storage-node service until interrupted."""
    name = advertise or listen  # the node's address on the roster
    with closing(RealNet()) as net:
        try:
            nf = _load_node_file(nf_path)
            if bootstrap:
                reply, _ = net.request(name, bootstrap, Frame(MsgType.GET_NF), 5000.0)
                if reply.type is not MsgType.NF_DATA:
                    reason = reply.header.get("reason", reply.type.name)
                    raise NetworkError(f"bootstrap peer {bootstrap} sent no roster: {reason}")
                digest = hashing.parse_hex_digest(reply.header.get("digest"), "digest")
                nf = update_node_file(nf, digest, reply.body)
            if name not in nf.addresses:  # a node off its own roster is never elected, and polls itself
                flag = "--advertise" if advertise else "--listen"
                raise UsageError(f"{flag} {name} is not on the roster this node would serve")
            store = BlockStore(quota_bytes(quota_gb), data_dir=data_dir)
            service = NodeService(name, store, nf, transport=net)
            server = NodeServer(parse_address(listen), service)
        except HainaError as exc:
            _fail(exc)
        except OSError as exc:
            click.echo(f"error: cannot serve on {listen}: {exc}", err=True)
            sys.exit(3)
        log.info("serving %s on %s from %s", name, listen, data_dir)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()


def _write_csv(path, rows):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(rows_to_csv(rows))


@main.command()
@click.option("--file", "file_path", required=True, type=click.Path(exists=True))
@click.option("--blocks", "n", default=20, show_default=True, help="data block count")
@click.option("--nf", "nf_path", required=True, type=click.Path(exists=True))
@click.option("--rate", default=0.1, show_default=True, help="fairness threshold")
@click.option("--seed", default=None, type=int, help="reproducible randomness, for tests: one seed, one file key and IV")
@click.option("--meta-out", default=None, type=click.Path(), help="meta file path")
@click.option("--csv-out", default=None, type=click.Path(), help="metrics CSV path")
def upload(file_path, n, nf_path, rate, seed, meta_out, csv_out):
    """Encrypt, shard, and place a file on the cluster; write its meta file."""
    if seed is not None:
        click.echo(f"warning: --seed {seed} fixes the file key and IV, so files uploaded under it share a keystream", err=True)
    try:
        with open(file_path, "rb") as fh:
            data = fh.read()
        nf = _load_node_file(nf_path)
        cfg = PorConfig(rate=rate)
        with closing(RealNet()) as net:
            report = client_upload(data, n, cfg, nf, net, seed=seed)
    except HainaError as exc:
        _fail(exc)
    meta_out = meta_out or file_path + META_SUFFIX
    with open(meta_out, "wb") as fh:
        fh.write(serialize_meta_file(report.meta))
    rows = [
        MetricsRow("upload", "stage_ms", ms, {"stage": stage, "clock": "wall"})
        for stage, ms in report.stage_ms.items()
    ]
    for i, node_addr in enumerate(report.placements):
        rows.append(MetricsRow("upload", "block_node", 1.0, {"block": i + 1, "node": node_addr}))
        rows.append(MetricsRow("upload", "decision_ms", report.decision_ms[i], {"block": i + 1, "clock": "wall"}))
        rows.append(
            MetricsRow("upload", "stage_ms", report.transfer_ms[i], {"stage": "transfer", "block": i + 1, "clock": "wall"})
        )
    _write_csv(csv_out, rows)
    click.echo(f"uploaded {len(data)} bytes in {n} blocks; meta file: {meta_out}")


@main.command()
@click.option("--meta", "meta_path", required=True, type=click.Path(exists=True))
@click.option("--nf", "nf_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--mode", type=click.Choice(["bi", "uni"]), default="bi", show_default=True)
@click.option("--csv-out", default=None, type=click.Path())
def download(meta_path, nf_path, out_path, mode, csv_out):
    """Recover a file from the cluster using its meta file."""
    try:
        with open(meta_path, "rb") as fh:
            meta = parse_meta_file(fh.read())
        nf = _load_node_file(nf_path)
        with closing(RealNet()) as net:
            report = client_download(meta, nf, net, mode=mode)
    except HainaError as exc:
        _fail(exc)
    with open(out_path, "wb") as fh:
        fh.write(report.data)
    stages = {f"fetch_{mode}": report.fetch_ms, **report.stage_ms}
    rows = [MetricsRow("download", "stage_ms", ms, {"stage": stage, "clock": "wall"}) for stage, ms in stages.items()]
    _write_csv(csv_out, rows)
    click.echo(f"recovered {len(report.data)} bytes to {out_path} ({mode} fetch, {report.rounds} rounds)")


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--experiment", required=True, type=click.Choice(list(EXPERIMENTS)))
@click.option("--out", "out_path", required=True, type=click.Path())
def sim(spec_path, experiment, out_path):
    """Run one experiment on an in-process simulated cluster (virtual time)."""
    try:
        with open(spec_path, "r", encoding="utf-8") as fh:
            spec = parse_cluster_spec(fh.read())
        rows = run_experiment(spec, experiment)
    except HainaError as exc:
        _fail(exc)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(rows))
    click.echo(f"{experiment}: {len(rows)} rows -> {out_path}")


if __name__ == "__main__":
    main()
