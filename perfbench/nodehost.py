"""Serve a loopback haina cluster from one process until stdin closes.

    python3 perfbench/nodehost.py --nodes 8 --data-root DIR [--trace-out FILE]

Each node is a `NodeServer` on 127.0.0.1 with an OS-chosen port, its own
block directory under DIR and the defaults `haina node serve` uses: a
1 GB quota and `PorConfig()`.  Once every node listens, the host prints
one JSON line `{"addresses": [...]}`.  When stdin reaches end of file
(the benchmark closed it, or died), the host stops every server, closes
its listening socket, writes its spans to FILE if tracing, and exits.
"""

import argparse
import json
import os
import sys
import threading

QUOTA_BYTES = 10**9


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--data-root", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    import haina.node
    from haina.blockstore import BlockStore
    from haina.nodefile import make_node_file
    from haina.por import PorConfig
    from haina.realnet import RealNet

    tracer = None
    if args.trace_out:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer, client_side=False)

    servers = [haina.node.NodeServer(("127.0.0.1", 0), None) for _ in range(args.nodes)]
    serving = []
    try:
        addresses = [f"127.0.0.1:{s.server_address[1]}" for s in servers]
        nf = make_node_file(addresses)
        for server, address in zip(servers, addresses):
            data_dir = os.path.join(args.data_root, address.rpartition(":")[2])
            store = BlockStore(QUOTA_BYTES, data_dir=data_dir)
            server.service = haina.node.NodeService(address, store, nf, PorConfig(), RealNet())
            server.serve_background()
            serving.append(server)
        print(json.dumps({"addresses": addresses}), flush=True)
        sys.stdin.read()
    finally:
        # shutdown() waits up to one poll interval (0.5 s); wait for all at once
        stoppers = [threading.Thread(target=server.shutdown) for server in serving]
        for stopper in stoppers:
            stopper.start()
        for stopper in stoppers:
            stopper.join()
        for server in servers:
            server.server_close()
    if tracer is not None:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    main()
