"""wormnet: malware propagation over contact networks, and what slows it down.

Modules: ``graph`` (graphs, file formats), ``netgen`` (network families and
named presets), ``percolation`` (vaccination thresholds), ``epidemic``
(propagation engine), ``throttle`` (connection rate limiting), ``harness``
(experiment batches), ``cli`` (command line)."""
