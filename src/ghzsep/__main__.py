from .cli import main

main(prog_name="python -m ghzsep")
