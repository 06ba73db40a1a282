"""The repo's one benchmark: seeded stream workloads measured end to end
from outside the program, plus a traced run that says where the time
went.  ``python3 -m bench.run`` is the only entry point; see README.md.
"""
