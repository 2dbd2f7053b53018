"""The exceptions every ymtorus module raises.

  InputError    invalid arguments, data or background parameters (a ValueError)
  ConfigError   an invalid run configuration; .violations lists every problem
  SolverError   an iterative solver stopped without converging
  BlowUpError   the evolution produced non-finite values
"""


class InputError(ValueError):
    pass


class ConfigError(InputError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.violations))


class SolverError(RuntimeError):
    pass


class BlowUpError(RuntimeError):
    pass
