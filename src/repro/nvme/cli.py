"""An ``nvme-cli``-flavoured facade over the simulated devices.

Intended for examples and interactive exploration: string commands in,
rendered text out, mirroring the tool the paper's methodology drives.

    >>> from repro.sim import Engine
    >>> from repro.devices import build_device
    >>> engine = Engine()
    >>> cli = NvmeCli(engine)
    >>> dev = build_device(engine, "ssd2")
    >>> cli.register(dev)
    '/dev/nvme0n1'
    >>> print(cli.run("id-ctrl /dev/nvme0n1").splitlines()[0])
    mn : ssd2
"""

from __future__ import annotations

import shlex

from repro.devices.ssd import SimulatedSSD
from repro.nvme.features import get_power_state, set_power_state
from repro.nvme.identify import identify_controller
from repro.sim.engine import Engine

__all__ = ["NvmeCli"]


class NvmeCli:
    """Registry of simulated NVMe namespaces plus a tiny command parser."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._devices: dict[str, SimulatedSSD] = {}

    def register(self, device: SimulatedSSD) -> str:
        """Attach a device; returns its assigned ``/dev/nvmeXn1`` path."""
        path = f"/dev/nvme{len(self._devices)}n1"
        self._devices[path] = device
        return path

    def device(self, path: str) -> SimulatedSSD:
        try:
            return self._devices[path]
        except KeyError:
            raise ValueError(
                f"no such namespace {path!r}; registered: {sorted(self._devices)}"
            ) from None

    def run(self, command: str) -> str:
        """Execute one command string and return its rendered output.

        Supported commands::

            id-ctrl <dev>
            get-feature <dev> -f 2
            set-feature <dev> -f 2 -v <ps>
        """
        tokens = shlex.split(command)
        if not tokens:
            raise ValueError("empty nvme command")
        verb = tokens[0]
        if verb == "id-ctrl":
            return identify_controller(self.device(tokens[1])).render()
        if verb in ("get-feature", "set-feature"):
            opts = self._parse_opts(tokens[2:])
            if opts.get("-f") != "2":
                raise ValueError("only feature 2 (Power Management) is modelled")
            device = self.device(tokens[1])
            if verb == "get-feature":
                return f"get-feature:0x2 (Power Management), Current value:{get_power_state(device)}"
            ps = int(opts["-v"])
            # Drive the transition to completion on the engine.
            proc = self.engine.process(set_power_state(device, ps))
            self.engine.run(until=self.engine.peek() if proc.is_alive else self.engine.now)
            self.engine.run_until_complete(proc)
            return f"set-feature:0x2 (Power Management), value:{ps}"
        raise ValueError(f"unsupported nvme command {verb!r}")

    @staticmethod
    def _parse_opts(tokens: list[str]) -> dict[str, str]:
        opts: dict[str, str] = {}
        index = 0
        while index < len(tokens):
            flag = tokens[index]
            if not flag.startswith("-") or index + 1 >= len(tokens):
                raise ValueError(f"malformed option list near {flag!r}")
            opts[flag] = tokens[index + 1]
            index += 2
        return opts
