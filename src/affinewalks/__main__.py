from .harness import main

main()
