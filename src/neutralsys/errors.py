"""Exception hierarchy shared across the package."""


class NeutralSysError(Exception):
    """Base class for package-specific failures."""


class SystemParseError(NeutralSysError):
    """System file is not valid JSON or is structurally malformed."""


class SystemValidationError(NeutralSysError):
    """System file parsed but violates the data-model invariants."""

    def __init__(self, report):
        self.report = report
        detail = "; ".join(f"{sev}: {msg}" for sev, msg in report.issues)
        super().__init__(f"invalid system description: {detail}")


class ContourError(NeutralSysError):
    """Base class for argument-principle contour failures."""


class RootOnContourError(ContourError):
    """A contour sample is closer to a root than the boundary tolerance allows."""


class PhaseTrackingError(ContourError):
    """Adaptive phase refinement did not stabilise the winding number."""


class SimulationBlowUpError(NeutralSysError):
    """Simulation state became non-finite during time stepping."""

    def __init__(self, t_blowup):
        self.t_blowup = float(t_blowup)
        super().__init__(f"state became non-finite at t = {self.t_blowup:.6g}")
